package coordinator

import (
	"testing"

	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/simulation"
)

// TestPolicyConfigMeansTheSameLiveAndSimulated: one written
// policy.Config must resolve to the same cycle on both substrates. Both
// hand it to the pipeline untouched, and policy.Config.sanitize (pinned
// field by field in internal/policy) holds the only copy of the rule;
// here the observable is whether §2.4 preemption is on.
func TestPolicyConfigMeansTheSameLiveAndSimulated(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      policy.Config
		preempts bool
	}{
		{"zero", policy.Config{}, true},
		{"only Name", policy.Config{Name: "fifo"}, true},
		{"bench spelling", policy.Config{MaxGrantsPerCycle: 4, Placement: policy.PlaceFirstFit}, false},
		{"named, grants set", policy.Config{Name: "fifo", MaxGrantsPerCycle: 4}, false},
		{"preempts set", policy.Config{MaxPreemptsPerCycle: 2}, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Live: light wants a machine, the only one runs heavy's job,
			// and light outranks heavy under Up-Down (denied vs holding)
			// and under FIFO (registered first).
			coord, scripted := healthPool(t, []string{"light", "heavy", "exec"}, Config{Policy: tc.cfg})
			scripted["light"].set(true, func(r *proto.PollReply) {
				r.State, r.WaitingJobs = proto.StationOwner, 1
			})
			scripted["heavy"].set(true, func(r *proto.PollReply) { r.State = proto.StationOwner })
			scripted["exec"].set(true, func(r *proto.PollReply) {
				r.State, r.ForeignJob, r.ForeignOwnerStation = proto.StationClaimed, "heavy/1", "heavy"
			})
			coord.Cycle()
			if got := coord.Stats().Preempts > 0; got != tc.preempts {
				t.Errorf("live coordinator preempted = %v, want %v", got, tc.preempts)
			}

			// Simulated: three days of the Table 1 workload on a pool small
			// enough that demand always outruns idle machines.
			rep := simulation.Run(simulation.Config{Machines: 8, Days: 3, Seed: 1987, Policy: tc.cfg})
			if got := rep.Preempts > 0; got != tc.preempts {
				t.Errorf("simulator preempted = %v (%d preemptions), want %v", got, rep.Preempts, tc.preempts)
			}
		})
	}
}
