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

// TestFIFOServesInRegistrationOrder: live FIFO is registration order, as
// in the simulator, not the order stations first wanted. late wants
// first and its job runs on exec; once early wants too, early outranks
// late and preempts that job.
func TestFIFOServesInRegistrationOrder(t *testing.T) {
	coord, scripted := healthPool(t, []string{"early", "late", "exec"}, Config{Policy: policy.Config{Name: "fifo"}})
	wants := func(r *proto.PollReply) { r.State, r.WaitingJobs = proto.StationOwner, 1 }
	owner := func(r *proto.PollReply) { r.State = proto.StationOwner }
	scripted["early"].set(true, owner)
	scripted["late"].set(true, wants)
	scripted["exec"].set(true, owner)
	coord.Cycle()
	scripted["early"].set(true, wants)
	scripted["exec"].set(true, func(r *proto.PollReply) {
		r.State, r.ForeignJob, r.ForeignOwnerStation = proto.StationClaimed, "late/1", "late"
	})
	coord.Cycle()
	if got := coord.Stats().Preempts; got != 1 {
		t.Fatalf("Preempts = %d, want 1: early registered first, so it outranks late", got)
	}
}
