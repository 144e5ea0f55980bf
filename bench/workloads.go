package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/trace"
)

// round is what one fixed-size repetition of a workload measured.
type round struct {
	setup time.Duration // pool construction → all registered → warm
	wall  time.Duration // the measured region (throughput denominator)
	total time.Duration // whole round, set-up and teardown included
	ops   float64       // units of work done in wall
	lat   []float64     // per-operation latency samples, ms
	// cycles are the timed Coordinator.Cycle calls of the measured region.
	cycles    []cycleRec
	attempted int
	failed    int
	failures  []string
	// layer holds this round's per-layer counts and derived values.
	layer map[string]float64
	jobs  []*jobRec
	// placeSpans holds the schedd's own always-on "place" spans
	// (trace.Default) that started inside this round's measured region;
	// traced rounds only.
	placeSpans []trace.Span
	// probe carries what the layer probes need from the live workload.
	probe probeInputs
}

// workload is one benchmark scenario. prepare generates the inputs and
// their reference answers from the seed, once per process; run executes
// one round against a fresh pool. op names the unit that
// throughput_per_s, latency_*_ms and allocs_per_op count.
type workload struct {
	name    string
	why     string
	op      string
	prepare func(seed int64, sz sizes) (any, error)
	run     func(in any, sz sizes, rec *recorder, outDir string) (*round, error)
}

var workloads = []workload{
	{
		name: "sched-burst", op: "job",
		why:     "Scheduler-bound: a burst of tiny sleeping jobs, so coordinator act phase, schedd.PlaceNext, ru.Place and per-RPC wire cost do the work; cvm, ckpt size and syscalls do almost none.",
		prepare: prepareBurst, run: runBurst,
	},
	{
		name: "pool-scale", op: "cycle",
		why:     "Poll-bound: 400 stations, nothing grantable, journal on; the same coordinator+wire layers as poll fan-out, index update, journal batch and audited decide, with the act phase idle.",
		prepare: prepareScale, run: runScale,
	},
	{
		name: "syscall-stream", op: "syscall",
		why:     "RU-bound: four concurrent file jobs forward tens of thousands of 64-byte reads and writes executor→wire→shadow→back; one peer, many tiny frames, a handful of cycles.",
		prepare: prepareStream, run: runStream,
	},
	{
		name: "ckpt-migrate", op: "migration",
		why:     "Checkpoint-bound: jobs with an incompressible 1 MiB image are vacated four times each, so cvm.Snapshot, ckpt encode/compress/decode, ckpt.Store and few large wire frames dominate.",
		prepare: prepareMigrate, run: runMigrate,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// jobInputs is what the three job workloads prepare.
type jobInputs struct {
	specs []jobSpec
	files map[string][]byte
	// initialBlob is the size of one job's sequence-zero checkpoint, the
	// blob its first placement ships out.
	initialBlob int
}

func (in *jobInputs) finish() error {
	for i := range in.specs {
		spec := &in.specs[i]
		// Jobs that share a program share its reference answer.
		if i > 0 && in.specs[i-1].prog == spec.prog {
			prev := in.specs[i-1]
			spec.wantStdout, spec.wantFile, spec.wantSteps = prev.wantStdout, prev.wantFile, prev.wantSteps
			continue
		}
		if err := runLocal(spec, in.files); err != nil {
			return err
		}
	}
	blob, err := ru.InitialCheckpoint(ckpt.Meta{JobID: "bench/0"}, in.specs[0].prog, 0)
	if err != nil {
		return err
	}
	in.initialBlob = len(blob)
	return nil
}

// runJobRound builds the pool, runs the jobs and folds the outcome into
// a round; the three job workloads differ only in inputs and metrics.
func runJobRound(spec poolSpec, in *jobInputs, sz sizes, rec *recorder) (*round, *jobsOutcome, error) {
	start := time.Now()
	var hosts *hostTable
	if in.files != nil {
		hosts = newHostTable(in.files)
		spec.hosts = hosts.factory()
	}
	p, err := newPool(spec)
	if err != nil {
		return nil, nil, err
	}
	defer p.Close()
	r := &round{setup: time.Since(start), attempted: len(in.specs)}
	before := readCounters(p)
	measure := time.Now()
	rec.setRoot(rec.add("round", "", 0, measure, measure))
	out := runJobs(p, rec, in.specs, hosts, sz.grace)
	rec.setEnd(rec.rootID(), time.Now())
	after := readCounters(p)
	if rec != nil {
		for _, sp := range trace.Default.Snapshot() {
			if sp.Name == "place" && sp.Err == "" && !sp.Start.Before(measure) {
				r.placeSpans = append(r.placeSpans, sp)
			}
		}
	}

	r.cycles, r.jobs = out.cycles, out.jobs
	r.failed, r.failures = out.failed, out.failures
	r.layer = after.since(before)
	// A job's latency is its turnaround unless the workload says otherwise.
	var submits []float64
	for _, j := range out.jobs {
		submits = append(submits, us(j.submitDur))
		if !j.doneAt.IsZero() {
			r.lat = append(r.lat, ms(j.doneAt.Sub(j.submitAt)))
		}
	}
	done := float64(len(r.lat))
	span := out.lastDone.Sub(out.firstSubmit)
	r.layer["schedd.completed"] = done
	r.layer["schedd.submit_us"] = mean(submits)
	r.layer["schedd.submit_p95_us"] = percentile(submits, 0.95)
	r.layer["jobs_per_s"] = ratio(done, span.Seconds())
	r.layer["turnaround_p50_ms"] = median(r.lat)
	r.layer["turnaround_p95_ms"] = percentile(r.lat, 0.95)
	// Blobs shipped: every vacate sends one home (the ledger counts
	// those) and the next placement sends the same image out again;
	// first placements send the initial image. The outbound half is
	// computed, not counted: no exported counter covers it.
	shipped := 2*r.layer["ckpt.bytes_home"] + float64(len(out.jobs)*in.initialBlob)
	r.layer["ckpt.bytes_shipped"] = shipped
	r.layer["ckpt_mb_per_s"] = ratio(shipped/(1<<20), span.Seconds())
	r.probe = probeInputs{stations: spec.stations, prog: in.specs[0].prog, steps: in.specs[0].wantSteps, files: in.files, views: out.views}
	r.total = time.Since(start)
	return r, out, nil
}

// balancedHomes assigns n jobs to homes submitting stations, which the
// seed picks out of stations, the same number to each and in seeded
// order. The seed decides who submits and in what interleaving, never
// how unevenly, so runs with different seeds do the same amount of work.
func balancedHomes(rng *rand.Rand, n, homes, stations int) []int {
	chosen := rng.Perm(stations)[:homes]
	out := make([]int, n)
	for i := range out {
		out[i] = chosen[i%homes]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- sched-burst ---------------------------------------------------------

func prepareBurst(seed int64, sz sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	prog := cvm.SpinProgram(1000)
	in := &jobInputs{}
	for _, home := range balancedHomes(rng, sz.burstJobs, sz.burstHomes, sz.burstStations) {
		in.specs = append(in.specs, jobSpec{home: home, owner: fmt.Sprintf("user%d", home), prog: prog})
	}
	return in, in.finish()
}

func runBurst(in any, sz sizes, rec *recorder, _ string) (*round, error) {
	inputs := in.(*jobInputs)
	// 1000 steps per slice and a 5 ms pause make each job ≈15 ms of wall
	// and ≈0 CPU, so the scheduler, not the guests, is the bottleneck.
	r, out, err := runJobRound(poolSpec{
		stations: sz.burstStations, maxGrants: 8,
		stepsPerSlice: 1000, sliceDelay: 5 * time.Millisecond,
	}, inputs, sz, rec)
	if err != nil {
		return nil, err
	}
	r.wall = out.lastDone.Sub(out.firstSubmit)
	r.ops = r.layer["schedd.completed"]
	return r, nil
}

// --- pool-scale ----------------------------------------------------------

type scaleInputs struct {
	ownerActive []bool
	homes       []int
	idle        int
	sleeper     *cvm.Program
}

func prepareScale(seed int64, sz sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &scaleInputs{
		ownerActive: make([]bool, sz.scaleStations),
		idle:        sz.scaleStations / 10,
		// With the pool's 1000-step slices and ten-minute pause a
		// sleeper claims its machine for the whole run at no CPU cost.
		sleeper: cvm.SpinProgram(1 << 40),
	}
	perm := rng.Perm(sz.scaleStations)
	for _, i := range perm[in.idle:] {
		in.ownerActive[i] = true
	}
	// Homes are owner-active stations: they want capacity, offer none.
	in.homes = perm[in.idle : in.idle+sz.scaleHomes]
	return in, nil
}

func runScale(in any, sz sizes, rec *recorder, outDir string) (*round, error) {
	inputs := in.(*scaleInputs)
	start := time.Now()
	stateDir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	p, err := newPool(poolSpec{
		stations: sz.scaleStations, ownerActive: inputs.ownerActive, maxGrants: 8,
		stepsPerSlice: 1000, sliceDelay: 10 * time.Minute,
		stateDir: stateDir,
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	// Deeper queues than machines: every home keeps jobs waiting after
	// the idle tenth is claimed, so each measured cycle ranks requesters
	// and finds no candidate.
	perHome := inputs.idle/len(inputs.homes) + 2
	for _, h := range inputs.homes {
		for i := 0; i < perHome; i++ {
			if _, err := p.stations[h].SubmitJob("sleeper", inputs.sleeper, schedd.SubmitOptions{}); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < 4*inputs.idle && p.coord.Stats().GrantsUsed < uint64(inputs.idle); i++ {
		p.coord.Cycle()
	}
	p.coord.Cycle()
	r := &round{setup: time.Since(start), attempted: sz.scaleCycles}
	if used := p.coord.Stats().GrantsUsed; used != uint64(inputs.idle) {
		return nil, fmt.Errorf("pool-scale warm-up claimed %d of %d idle stations", used, inputs.idle)
	}

	before := readCounters(p)
	driver := &cycleDriver{p: p, rec: rec}
	measure := time.Now()
	rec.setRoot(rec.add("round", "", 0, measure, measure))
	for i := 0; i < sz.scaleCycles; i++ {
		pollFails := p.coord.Stats().PollFails
		driver.cycleOnce()
		c := driver.cycles[len(driver.cycles)-1]
		if c.grants > 0 || p.coord.Stats().PollFails > pollFails {
			r.failed++
		}
		r.lat = append(r.lat, ms(c.dur))
	}
	r.wall = time.Since(measure)
	rec.setEnd(rec.rootID(), time.Now())
	after := readCounters(p)
	r.cycles = driver.cycles
	r.ops = float64(len(r.cycles))
	r.layer = after.since(before)
	claimed := 0
	for _, st := range p.stations {
		if _, _, ok := st.Starter().Running(); ok {
			claimed++
		}
	}
	if claimed != inputs.idle {
		r.failed = r.attempted
		r.failures = append(r.failures, fmt.Sprintf("%d sleepers resident, want %d", claimed, inputs.idle))
	}
	r.probe = probeInputs{stations: sz.scaleStations, prog: inputs.sleeper, views: viewsOf(p)}
	r.total = time.Since(start)
	return r, nil
}

// --- syscall-stream ------------------------------------------------------

const inFile = "in.dat"

func prepareStream(seed int64, sz sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &jobInputs{files: map[string][]byte{inFile: seededText(rng, sz.streamFileBytes)}}
	// Reads beside writes, so a gain on one direction that costs the
	// other shows: two copies (read+write) and two counts (read-only).
	copyProg := cvm.FileCopyProgram(inFile, outFile)
	countProg := cvm.WordCountProgram(inFile)
	homes := balancedHomes(rng, 4, 4, 4)
	for i, prog := range []*cvm.Program{copyProg, copyProg, countProg, countProg} {
		home := homes[i]
		in.specs = append(in.specs, jobSpec{home: home, owner: fmt.Sprintf("user%d", home), prog: prog})
	}
	return in, in.finish()
}

func runStream(in any, sz sizes, rec *recorder, _ string) (*round, error) {
	inputs := in.(*jobInputs)
	r, out, err := runJobRound(poolSpec{stations: 4, maxGrants: 4}, inputs, sz, rec)
	if err != nil {
		return nil, err
	}
	r.wall = out.lastDone.Sub(out.firstRunning)
	r.ops = r.layer["ru.syscalls"]
	r.layer["syscalls_per_s"] = ratio(r.ops, r.wall.Seconds())
	return r, nil
}

// --- ckpt-migrate --------------------------------------------------------

func prepareMigrate(seed int64, sz sizes) (any, error) {
	rng := rand.New(rand.NewSource(seed))
	// Two program variants keep the reference runs cheap while a resume
	// from another job's image still prints the wrong number.
	progs := []*cvm.Program{
		foldProgram(rng.Int63(), sz.migrateWords, sz.migrateFolds),
		foldProgram(rng.Int63(), sz.migrateWords, sz.migrateFolds),
	}
	in := &jobInputs{}
	homes := balancedHomes(rng, sz.migrateJobs, min(sz.migrateJobs, sz.migrateStations), sz.migrateStations)
	for v, prog := range progs {
		for i := v; i < sz.migrateJobs; i += len(progs) {
			spec := jobSpec{home: homes[i], owner: fmt.Sprintf("user%d", homes[i]), prog: prog}
			// Each job's delays are the same evenly spaced values in
			// seeded order: the seed moves when a job is vacated, not
			// how long it runs in total.
			step := (sz.migrateDelayMax - sz.migrateDelayMin) / time.Duration(max(sz.migrateVacates-1, 1))
			for _, k := range rng.Perm(sz.migrateVacates) {
				spec.vacates = append(spec.vacates, sz.migrateDelayMin+time.Duration(k)*step)
			}
			in.specs = append(in.specs, spec)
		}
	}
	return in, in.finish()
}

func runMigrate(in any, sz sizes, rec *recorder, _ string) (*round, error) {
	inputs := in.(*jobInputs)
	// A 1 ms pause after every 100k instructions (≈0.5 ms) caps how fast
	// a job can finish, whatever the cores are doing: it outlasts its
	// vacate schedule several times over even when the waiter goroutine
	// is late, and leaves the CPU to the checkpoint path.
	r, out, err := runJobRound(poolSpec{
		stations: sz.migrateStations, maxGrants: 8,
		stepsPerSlice: 100_000, sliceDelay: time.Millisecond,
	}, inputs, sz, rec)
	if err != nil {
		return nil, err
	}
	r.wall = out.lastDone.Sub(out.firstSubmit)
	r.lat = nil // migration gaps, not turnarounds
	var ships []float64
	for _, j := range out.jobs {
		for n, call := range j.vacCalls {
			if n < len(j.vacated) {
				ships = append(ships, ms(j.vacated[n].Sub(call)))
			}
			if n+1 < len(j.places) {
				r.lat = append(r.lat, ms(j.places[n+1].at.Sub(call)))
			}
		}
	}
	r.ops = float64(len(r.lat))
	r.layer["ru.vacate_ship_ms"] = mean(ships)
	r.layer["migration_gap_p50_ms"] = median(r.lat)
	r.layer["migration_gap_p95_ms"] = percentile(r.lat, 0.95)
	return r, nil
}
