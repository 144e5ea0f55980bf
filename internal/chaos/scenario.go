package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"condor/internal/coordinator"
	"condor/internal/cvm"
	"condor/internal/eventlog"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/wire"
)

// Scenario configures one randomized chaos run: a live coordinator and
// Stations schedd stations, every station's inbound traffic routed
// through a fault-injecting proxy, driven for Cycles allocation cycles
// under a seeded random fault schedule (slow links, one-way and full
// partitions, flapping, frame corruption), optionally with a byzantine
// station in the pool and a coordinator kill+restart mid-run. After the
// schedule the cluster heals and the run asserts the system's
// invariants (see Report).
type Scenario struct {
	// Stations is the number of real schedd stations (default 5).
	Stations int
	// Cycles is how many faulted allocation cycles to drive (default 50).
	Cycles int
	// Jobs is how many background jobs to submit round-robin (default 6).
	Jobs int
	// Seed makes the fault schedule reproducible (default 1).
	Seed int64
	// StateDir is the coordinator's journal directory (required: the
	// mid-run restart rides the journal).
	StateDir string
	// RestartAt kills and restarts the coordinator after this cycle
	// (default Cycles/2; negative disables the restart).
	RestartAt int
	// Byzantine adds a lying station to the pool.
	Byzantine bool
	// Logf, when set, receives progress lines (plumb t.Logf in tests).
	Logf func(format string, args ...any)
}

// Report is the outcome of a chaos run. A run is a pass iff Violations
// is empty; everything else is color.
type Report struct {
	Cycles           int
	Quarantines      uint64
	Readmissions     uint64
	ByzantineReplies uint64
	DegradedCycles   uint64
	// Violations lists every broken invariant: a lost job, a double
	// execution, a station never readmitted, unconserved accounting, or
	// health state lost across the restart.
	Violations []string
}

func (sc *Scenario) sanitize() {
	if sc.Stations <= 0 {
		sc.Stations = 5
	}
	if sc.Cycles <= 0 {
		sc.Cycles = 50
	}
	if sc.Jobs <= 0 {
		sc.Jobs = 6
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.RestartAt == 0 {
		sc.RestartAt = sc.Cycles / 2
	}
}

// episode is one proxy's active fault, in cycles remaining.
type episode struct {
	name      string
	remaining int
}

// faultFor draws a random fault episode: per-direction plans plus a
// duration. The catalogue covers every grey-failure class the health
// machine grades: slow, one-way partition (either direction), full
// partition, flapping, and corruption.
func faultFor(rng *rand.Rand, seed uint64) (string, wire.FaultPlan, wire.FaultPlan, int) {
	duration := 2 + rng.Intn(4) // 2–5 cycles
	switch rng.Intn(6) {
	case 0: // slow link, both directions
		p := wire.FaultPlan{
			LatencyMin: 5 * time.Millisecond,
			LatencyMax: 15 * time.Millisecond,
			Seed:       seed,
		}
		return "slow", p, p, duration
	case 1: // one-way: coordinator→station blackholed, replies flow
		return "oneway-in", wire.FaultPlan{StallWrites: true}, wire.FaultPlan{}, duration
	case 2: // one-way: station→coordinator blackholed, requests flow
		return "oneway-out", wire.FaultPlan{}, wire.FaultPlan{StallWrites: true}, duration
	case 3: // full partition
		p := wire.FaultPlan{StallWrites: true}
		return "partition", p, p, duration
	case 4: // flapping link
		p := wire.FaultPlan{
			FlapUp:   30 * time.Millisecond,
			FlapDown: 30 * time.Millisecond,
			Seed:     seed,
		}
		return "flap", p, p, duration
	case 5: // probabilistic frame corruption toward the station
		return "corrupt", wire.FaultPlan{CorruptProb: 0.5, Seed: seed}, wire.FaultPlan{}, duration
	}
	panic("unreachable")
}

// Run executes the scenario. Setup or infrastructure errors (not
// invariant violations) come back as err.
func Run(sc Scenario) (Report, error) {
	sc.sanitize()
	var rep Report
	logf := sc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if sc.StateDir == "" {
		return rep, fmt.Errorf("chaos: scenario needs a StateDir for the restart")
	}
	rng := rand.New(rand.NewSource(sc.Seed))

	coordCfg := coordinator.Config{
		PollInterval:    time.Hour, // cycles driven manually
		DialTimeout:     150 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
		DeadAfter:       100_000, // quarantine, never unregister, during chaos
		StateDir:        sc.StateDir,
		PollConcurrency: 16,
		Health: coordinator.HealthConfig{
			ProbeBase: 20 * time.Millisecond,
			ProbeMax:  200 * time.Millisecond,
		},
	}
	coord, err := coordinator.New(coordCfg)
	if err != nil {
		return rep, err
	}
	defer func() { coord.Close() }()

	// Stations, each behind its own proxy: the proxy address is what the
	// pool knows, so every poll, grant, and station→station placement
	// rides the faulted path; only the station's outbound dials (its
	// one-time registration, its shadow connections) go direct.
	nodes := make([]*node, 0, sc.Stations)
	defer func() {
		for _, n := range nodes {
			n.station.Close()
			n.proxy.Close()
		}
	}()
	for i := 0; i < sc.Stations; i++ {
		name := fmt.Sprintf("ws%d", i+1)
		proxy, err := NewProxy("")
		if err != nil {
			return rep, err
		}
		st, err := schedd.New(schedd.Config{
			Name:          name,
			AdvertiseAddr: proxy.Addr(),
			Monitor:       machine.NewScriptedMonitor(false),
			Starter: ru.StarterConfig{
				ScanInterval:  3 * time.Millisecond,
				SuspendGrace:  20 * time.Millisecond,
				StepsPerSlice: 5_000,
			},
			DialTimeout:        time.Second,
			PlacementHeartbeat: 50 * time.Millisecond,
		})
		if err != nil {
			proxy.Close()
			return rep, err
		}
		proxy.SetTarget(st.Addr())
		if err := st.Register(coord.Addr()); err != nil {
			st.Close()
			proxy.Close()
			return rep, err
		}
		nodes = append(nodes, &node{name: name, station: st, proxy: proxy})
	}

	var byz *ByzantineStation
	if sc.Byzantine {
		byz, err = NewByzantineStation("liar")
		if err != nil {
			return rep, err
		}
		defer byz.Close()
		coord.Register("liar", byz.Addr())
	}

	// Background jobs, round-robin across home stations.
	jobs := make([]jobRef, 0, sc.Jobs)
	for i := 0; i < sc.Jobs; i++ {
		n := nodes[i%len(nodes)]
		id, err := n.station.Submit(fmt.Sprintf("user%d", i%3), cvm.SumProgram(5_000), 0)
		if err != nil {
			return rep, err
		}
		jobs = append(jobs, jobRef{home: n.station, homeN: n.name, id: id})
	}

	// The randomized fault schedule: each cycle, idle proxies may start
	// an episode; expired episodes heal.
	episodes := make(map[*node]*episode)
	for cycle := 0; cycle < sc.Cycles; cycle++ {
		for _, n := range nodes {
			ep := episodes[n]
			if ep != nil {
				ep.remaining--
				if ep.remaining <= 0 {
					n.proxy.SetPlans(wire.FaultPlan{}, wire.FaultPlan{})
					delete(episodes, n)
				}
				continue
			}
			if rng.Intn(4) == 0 { // 25% chance to start a new episode
				name, fwd, bwd, dur := faultFor(rng, uint64(rng.Int63())|1)
				n.proxy.SetPlans(fwd, bwd)
				episodes[n] = &episode{name: name, remaining: dur}
				logf("cycle %d: %s: %s for %d cycles", cycle, n.name, name, dur)
			}
		}

		coord.Cycle()
		rep.Cycles++
		time.Sleep(2 * time.Millisecond) // let placements progress

		if sc.RestartAt > 0 && cycle == sc.RestartAt {
			// Kill the coordinator mid-quarantine and restart it from the
			// journal: graded health must come back with it.
			healthBefore := healthMap(coord)
			statsBefore := coord.Stats()
			rep.Quarantines += statsBefore.Quarantines
			rep.Readmissions += statsBefore.Readmissions
			rep.ByzantineReplies += statsBefore.ByzantineReplies
			rep.DegradedCycles += statsBefore.DegradedCycles
			coord.Close()
			logf("cycle %d: coordinator killed (health: %v)", cycle, healthBefore)
			coord, err = coordinator.New(coordCfg)
			if err != nil {
				return rep, fmt.Errorf("chaos: coordinator restart: %w", err)
			}
			healthAfter := healthMap(coord)
			for name, want := range healthBefore {
				if got := healthAfter[name]; got != want {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"restart lost health state of %s: %v → %v", name, want, got))
				}
			}
		}
	}

	// Heal everything and give the pool time to converge: probes readmit
	// quarantined stations, queued jobs finish.
	for _, n := range nodes {
		n.proxy.SetPlans(wire.FaultPlan{}, wire.FaultPlan{})
	}
	episodesDone := time.Now()
	logf("healed after %d cycles; converging", rep.Cycles)
	deadline := time.Now().Add(60 * time.Second)
	for {
		coord.Cycle()
		rep.Cycles++
		if allJobsDone(jobs) && allRealHealthy(coord, nodes) {
			break
		}
		if time.Now().After(deadline) {
			break // violations below will say what never converged
		}
		time.Sleep(5 * time.Millisecond)
	}
	logf("converged (or gave up) %s after heal", time.Since(episodesDone).Round(time.Millisecond))

	// Invariants.
	stats := coord.Stats()
	rep.Quarantines += stats.Quarantines
	rep.Readmissions += stats.Readmissions
	rep.ByzantineReplies += stats.ByzantineReplies
	rep.DegradedCycles += stats.DegradedCycles

	// 1. No job lost: every submitted job completed with the right output.
	for _, j := range jobs {
		status, err := j.home.Wait(j.id, time.Second)
		if err != nil || status.State != proto.JobCompleted {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"job %s lost: state %v err %v", j.id, status.State, err))
			continue
		}
		if got := strings.TrimSpace(status.Stdout); got != "12502500" {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"job %s corrupted: stdout %q", j.id, got))
		}
	}
	// 2. No double execution: exactly one completion event per job.
	for _, j := range jobs {
		completes := 0
		for _, e := range j.home.Events().ForJob(j.id) {
			if e.Kind == eventlog.KindComplete {
				completes++
			}
		}
		if completes != 1 {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"job %s completed %d times", j.id, completes))
		}
	}
	// 3. Every healable station readmitted; the liar still quarantined.
	finalHealth := healthMap(coord)
	for _, n := range nodes {
		if got := finalHealth[n.name]; got != proto.HealthHealthy {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"station %s never readmitted: %v", n.name, got))
		}
	}
	if sc.Byzantine {
		if got := finalHealth["liar"]; got == proto.HealthHealthy {
			rep.Violations = append(rep.Violations, "byzantine station scored healthy")
		}
		if rep.ByzantineReplies == 0 {
			rep.Violations = append(rep.Violations, "no byzantine replies detected")
		}
	}
	// 4. Accounting conserved: every grant is used or denied, none
	// minted or lost (the ledger totals survive the restart via the
	// journal, so this spans both incarnations).
	for name, a := range coord.Accounting().AllocSnapshot() {
		if a.Grants != a.GrantsUsed+a.GrantsDenied {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"accounting for %s not conserved: %d grants != %d used + %d denied",
				name, a.Grants, a.GrantsUsed, a.GrantsDenied))
		}
	}
	return rep, nil
}

// node is one real station and the proxy fronting it.
type node struct {
	name    string
	station *schedd.Station
	proxy   *Proxy
}

// jobRef tracks one submitted job and its home station.
type jobRef struct {
	home  *schedd.Station
	homeN string
	id    string
}

// healthMap snapshots station → health state.
func healthMap(coord *coordinator.Coordinator) map[string]proto.StationHealth {
	out := make(map[string]proto.StationHealth)
	for _, si := range coord.Stations() {
		out[si.Name] = si.Health
	}
	return out
}

// allJobsDone reports whether every submitted job has completed.
func allJobsDone(jobs []jobRef) bool {
	for _, j := range jobs {
		done := false
		for _, st := range j.home.Queue() {
			if st.ID == j.id && st.State == proto.JobCompleted {
				done = true
			}
		}
		if !done {
			return false
		}
	}
	return true
}

// allRealHealthy reports whether every real (non-byzantine) station is
// back to healthy.
func allRealHealthy(coord *coordinator.Coordinator, nodes []*node) bool {
	hm := healthMap(coord)
	for _, n := range nodes {
		if hm[n.name] != proto.HealthHealthy {
			return false
		}
	}
	return true
}
