package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"condor/internal/cvm"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/schedd"
	"condor/internal/telemetry"
)

// jobSpec is one generated job and the answer a local run gave for it.
type jobSpec struct {
	home  int // index of the submitting station
	owner string
	prog  *cvm.Program
	// vacates holds the delay between observing the job running for the
	// n-th time and calling Starter.Vacate on it; the job migrates
	// len(vacates) times and then runs to completion.
	vacates []time.Duration
	// The reference answer (see runLocal).
	wantStdout string
	wantFile   []byte // expected contents of outFile (nil = no output file)
	wantSteps  uint64
}

// placeRec is one observed placement.
type placeRec struct {
	at   time.Time
	exec string
}

// jobRec is what the harness saw of one job.
type jobRec struct {
	spec      *jobSpec
	id        string
	submitAt  time.Time // SubmitJob call
	submitDur time.Duration
	places    []placeRec
	vacCalls  []time.Time // Starter.Vacate calls
	vacated   []time.Time // vacate events at the home station
	doneAt    time.Time   // complete/fault event
}

// jobsOutcome is one round of submitted jobs, driven to completion.
type jobsOutcome struct {
	jobs         []*jobRec
	cycles       []cycleRec
	firstSubmit  time.Time
	firstRunning time.Time
	lastDone     time.Time
	// views is the coordinator's picture of the pool with half the jobs
	// done, for the policy probe.
	views    []policy.StationView
	failed   int      // jobs whose state, counts or output are wrong
	failures []string // first few reasons, for the operator
}

// pendingVacate is a Vacate call the waiter owes.
type pendingVacate struct {
	job *jobRec
	due time.Time
}

// outFile is the file name every file-writing job uses on its home host.
const outFile = "out.dat"

// runJobs is the first load goroutine's work: submit every job in one
// burst, then wait on the process event bus until all are terminal,
// issuing the scheduled vacates on the way. The second goroutine (the
// cycle driver) runs while a job waits and a station is free. grace
// bounds the whole run's patience once: if no job event arrives for that
// long, the jobs still open are counted failed (a job stranded by the
// PlaceNext/JobDone race never produces another event).
func runJobs(p *pool, rec *recorder, specs []jobSpec, hosts *hostTable, grace time.Duration) *jobsOutcome {
	out := &jobsOutcome{}
	// The ring must hold everything published while this goroutine is
	// still submitting: a few events per job plus two per cycle.
	sub := telemetry.Events.Subscribe(16*len(specs) + 4096)
	defer sub.Close()

	// The harness's picture of the pool, kept from job events and read
	// by the cycle driver: cycling is worthwhile while a job waits and a
	// station could take it.
	var idle, busy atomic.Int64
	nStations := int64(len(p.stations))
	driver := startCycleDriver(p, rec, func() bool {
		return idle.Load() > 0 && busy.Load() < nStations
	})

	byID := make(map[string]*jobRec, len(specs))
	for i := range specs {
		spec := &specs[i]
		j := &jobRec{spec: spec, submitAt: time.Now()}
		id, err := p.stations[spec.home].SubmitJob(spec.owner, spec.prog, schedd.SubmitOptions{})
		end := time.Now()
		j.submitDur = end.Sub(j.submitAt)
		rec.add("submit", id, rec.rootID(), j.submitAt, end)
		out.jobs = append(out.jobs, j)
		if err != nil {
			out.fail("submit on %s: %v", p.stations[spec.home].Name(), err)
			continue
		}
		j.id = id
		byID[id] = j
		idle.Add(1)
		driver.wake()
	}
	if len(out.jobs) > 0 {
		out.firstSubmit = out.jobs[0].submitAt
	}

	waitStart := time.Now()
	open := len(byID)
	lastEvent := time.Now()
	var pending []pendingVacate
	for open > 0 {
		deadline := lastEvent.Add(grace)
		for _, pv := range pending {
			if pv.due.Before(deadline) {
				deadline = pv.due
			}
		}
		cancel := make(chan struct{})
		timer := time.AfterFunc(time.Until(deadline), func() { close(cancel) })
		ev, ok := sub.Next(cancel)
		timer.Stop()
		now := time.Now()
		if ok {
			if j := byID[ev.Job]; j != nil && strings.HasPrefix(ev.Source, "station/") {
				lastEvent = now
				switch ev.Kind {
				case "place":
					j.places = append(j.places, placeRec{at: ev.At, exec: ev.Station})
					if out.firstRunning.IsZero() {
						out.firstRunning = ev.At
					}
					idle.Add(-1)
					busy.Add(1)
					if n := len(j.places); n <= len(j.spec.vacates) {
						pending = append(pending, pendingVacate{job: j, due: now.Add(j.spec.vacates[n-1])})
					}
				case "vacate", "lost":
					j.vacated = append(j.vacated, ev.At)
					idle.Add(1)
					busy.Add(-1)
				case "complete", "fault":
					j.doneAt = ev.At
					if ev.At.After(out.lastDone) {
						out.lastDone = ev.At
					}
					busy.Add(-1)
					open--
					if open == len(byID)/2 {
						out.views = viewsOf(p)
					}
				}
				driver.wake()
			}
		} else if now.Sub(lastEvent) >= grace {
			break
		}
		// Issue the vacates that have come due.
		kept := pending[:0]
		for _, pv := range pending {
			if pv.due.After(now) {
				kept = append(kept, pv)
				continue
			}
			j := pv.job
			exec := p.byName[j.places[len(j.places)-1].exec]
			start := time.Now()
			ok := exec != nil && exec.Starter().Vacate(j.id, "bench: scheduled migration")
			rec.add("vacate", j.id, rec.rootID(), start, time.Now())
			if !ok {
				out.fail("%s: vacate %d found the job gone", j.id, len(j.vacCalls)+1)
				continue
			}
			j.vacCalls = append(j.vacCalls, start)
		}
		pending = kept
	}
	rec.add("wait", "", rec.rootID(), waitStart, time.Now())
	out.cycles = driver.halt()
	if dropped := sub.Dropped(); dropped > 0 {
		out.fail("observer lost %d bus events", dropped)
	}
	out.verify(p, hosts)
	return out
}

func (o *jobsOutcome) fail(format string, args ...any) {
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// verify checks every job against its reference answer: terminal state,
// stdout, output file, instruction count, and the placement/checkpoint
// counts its vacate schedule implies.
func (o *jobsOutcome) verify(p *pool, hosts *hostTable) {
	for _, j := range o.jobs {
		if reason := j.check(p, hosts); reason != "" {
			o.failed++
			o.fail("%s: %s", j.id, reason)
		}
	}
}

func (j *jobRec) check(p *pool, hosts *hostTable) string {
	if j.id == "" {
		return "never submitted"
	}
	status, err := p.stations[j.spec.home].Job(j.id)
	if err != nil {
		return err.Error()
	}
	k := len(j.spec.vacates)
	switch {
	case status.State != proto.JobCompleted:
		return fmt.Sprintf("state %s, want completed", status.State)
	case status.ExitCode != 0:
		return fmt.Sprintf("exit code %d", status.ExitCode)
	case status.Stdout != j.spec.wantStdout:
		return fmt.Sprintf("stdout %q, want %q", status.Stdout, j.spec.wantStdout)
	case status.CPUSteps != j.spec.wantSteps:
		return fmt.Sprintf("%d steps, want %d", status.CPUSteps, j.spec.wantSteps)
	case status.Placements != k+1:
		return fmt.Sprintf("%d placements, want %d", status.Placements, k+1)
	case status.Checkpoints != k:
		return fmt.Sprintf("%d checkpoints, want %d", status.Checkpoints, k)
	}
	if j.spec.wantFile != nil {
		got, ok := hosts.host(j.id).File(outFile)
		if !ok || !bytes.Equal(got, j.spec.wantFile) {
			return fmt.Sprintf("output file differs from the local run (%d bytes, want %d)", len(got), len(j.spec.wantFile))
		}
	}
	return ""
}
