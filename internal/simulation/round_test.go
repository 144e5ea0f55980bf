package simulation

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"condor/internal/coordinator"
	"condor/internal/decision"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/wire"
	"condor/internal/workload"
)

// machineScript is one machine of a scripted pool picture, spelled once
// and applied to both substrates.
type machineScript struct {
	owner   bool   // the owner is at the keyboard
	queued  int    // jobs waiting in this machine's home queue
	runsFor string // home station of the foreign job running here ("" = none)
	down    bool   // crashed / not answering polls
}

// TestRoundSameLiveAndSimulated feeds the same scripted pool picture
// through the simulator's pollCycle and through a live coordinator's
// Cycle. Both build their views and hand them to policy.Round, so the
// audits must show the same decision (rejections, ranking with scores,
// grants, preemption comparisons) and the Up-Down tables the same
// post-round index for every station.
func TestRoundSameLiveAndSimulated(t *testing.T) {
	scripts := map[string][]machineScript{
		// ws00 wants two machines, two are idle.
		"grant": {{owner: true, queued: 2}, {owner: true}, {}, {}, {owner: true, queued: 1}},
		// Nothing idle: ws00 (denied) outranks ws01, whose job holds ws02.
		"preempt": {{owner: true, queued: 1}, {owner: true}, {runsFor: "ws01"}, {owner: true}, {owner: true}},
		// An unreachable machine is in neither substrate's views.
		"down": {{owner: true, queued: 1}, {down: true}, {runsFor: "ws03"}, {owner: true}, {}},
	}
	for _, tc := range []struct {
		name, script string
		cfg          policy.Config
		acts         bool // the round grants or preempts something
	}{
		{"grant/zero config", "grant", policy.Config{}, true},
		{"grant/bench spelling", "grant", policy.Config{MaxGrantsPerCycle: 4, Placement: policy.PlaceFirstFit}, true},
		{"grant/busiest-first burst", "grant", policy.Config{Name: "busiest-first", MaxGrantsPerCycle: 2, AllowBurstPerStation: true}, true},
		{"preempt/zero config", "preempt", policy.Config{}, true},
		{"preempt/fifo", "preempt", policy.Config{Name: "fifo"}, true},
		{"preempt/bench spelling: preemption off", "preempt", policy.Config{MaxGrantsPerCycle: 4, Placement: policy.PlaceFirstFit}, false},
		{"down/zero config", "down", policy.Config{}, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			script := scripts[tc.script]
			simAudit, simIdx := simulatedRound(t, script, tc.cfg)
			liveAudit, liveIdx := liveRound(t, script, tc.cfg)
			if !reflect.DeepEqual(simIdx, liveIdx) {
				t.Errorf("post-round indexes differ:\n sim  %v\n live %v", simIdx, liveIdx)
			}
			// Cycle number and timestamp are substrate bookkeeping, not
			// the decision.
			for _, a := range []*decision.CycleAudit{&simAudit, &liveAudit} {
				a.Cycle, a.At = 0, time.Time{}
			}
			if !reflect.DeepEqual(simAudit, liveAudit) {
				t.Errorf("decision audits differ:\n sim  %+v\n live %+v", simAudit, liveAudit)
			}
			if got := len(simAudit.Grants)+len(simAudit.Preempts) > 0; got != tc.acts {
				t.Errorf("round acted = %v, want %v: %+v", got, tc.acts, simAudit)
			}
		})
	}
}

func stationName(i int) string { return fmt.Sprintf("ws%02d", i) }

// simulatedRound sets the scripted picture up inside a simulator (in
// place of its generated workload) and runs one pollCycle.
func simulatedRound(t *testing.T, script []machineScript, pol policy.Config) (decision.CycleAudit, map[string]float64) {
	t.Helper()
	rec := decision.NewRecorder(4)
	cfg := Config{Machines: len(script), Days: 1, Seed: 1, Policy: pol, Audit: rec}
	cfg.sanitize()
	s := newSimulator(cfg)
	now := s.engine.Now()
	for _, u := range s.users {
		u.stream, u.queue, u.inSystem = nil, nil, 0
	}
	job := func(home string, n int, state jobState) *simJob {
		wj := workload.Job{ID: fmt.Sprintf("%s/%d", home, n), User: s.byHome[home].profile.Name, Demand: time.Hour}
		return &simJob{wj: wj, state: state, remaining: wj.Demand, lastCkptRemaining: wj.Demand, runStart: now,
			meter: s.ledger.Job(wj.ID, wj.User, home)}
	}
	for i, ms := range script {
		m, u := s.machines[i], s.byHome[stationName(i)]
		m.ownerActive, m.down = ms.owner, ms.down
		for n := 0; n < ms.queued; n++ {
			u.queue = append(u.queue, job(m.name, 100+n, jobQueued))
		}
		if ms.runsFor != "" {
			m.foreign = job(ms.runsFor, 1, jobRunning)
			m.foreign.machine = m
		}
	}
	s.pollCycle(now)
	return lastAudit(t, rec), indexes(len(script), s.table.Index)
}

// liveRound serves the scripted picture from fake stations on the wire
// and runs one cycle of a real coordinator over them.
func liveRound(t *testing.T, script []machineScript, pol policy.Config) (decision.CycleAudit, map[string]float64) {
	t.Helper()
	rec := decision.NewRecorder(4)
	coord, err := coordinator.New(coordinator.Config{PollInterval: time.Hour, Policy: pol, Decisions: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	for i, ms := range script {
		reply := proto.PollReply{Name: stationName(i), State: proto.StationIdle, WaitingJobs: ms.queued}
		switch {
		case ms.runsFor != "":
			reply.State, reply.ForeignJob, reply.ForeignOwnerStation = proto.StationClaimed, ms.runsFor+"/1", ms.runsFor
		case ms.owner:
			reply.State = proto.StationOwner
		}
		down := ms.down
		srv, err := wire.NewServer("127.0.0.1:0", func(*wire.Peer) wire.Handler {
			return func(_ context.Context, msg any) (any, error) {
				switch msg.(type) {
				case proto.PollRequest:
					if down {
						return nil, errors.New("down")
					}
					return reply, nil
				case proto.GrantRequest:
					return proto.GrantReply{Reason: "scripted station places nothing"}, nil
				default:
					return proto.Ack{}, nil
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		coord.Register(stationName(i), srv.Addr())
	}
	coord.Cycle()
	return lastAudit(t, rec), indexes(len(script), coord.Index)
}

func lastAudit(t *testing.T, rec *decision.Recorder) decision.CycleAudit {
	t.Helper()
	audits := rec.Snapshot()
	if len(audits) != 1 {
		t.Fatalf("recorded %d audits, want 1", len(audits))
	}
	return audits[0]
}

func indexes(n int, index func(string) float64) map[string]float64 {
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		out[stationName(i)] = index(stationName(i))
	}
	return out
}
