package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"condor/internal/proto"
	"condor/internal/updown"
)

// randomPool builds an arbitrary-but-consistent pool state.
func randomPool(r *rand.Rand) ([]StationView, *updown.Table) {
	n := 3 + r.Intn(20)
	tab := updown.NewTable(updown.DefaultConfig())
	views := make([]StationView, 0, n)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("ws%02d", i))
		tab.Touch(names[i])
	}
	for i := 0; i < n; i++ {
		v := StationView{Name: names[i]}
		switch r.Intn(4) {
		case 0:
			v.State = proto.StationIdle
		case 1:
			v.State = proto.StationOwner
		case 2:
			v.State = proto.StationClaimed
			v.ForeignOwner = names[r.Intn(n)]
			v.ForeignJob = v.ForeignOwner + "/1"
		case 3:
			v.State = proto.StationSuspended
			v.ForeignOwner = names[r.Intn(n)]
			v.ForeignJob = v.ForeignOwner + "/1"
		}
		v.WaitingJobs = r.Intn(5)
		if r.Intn(4) == 0 {
			v.ReservedFor = names[r.Intn(n)]
		}
		// Pipeline-stage inputs: disk pressure and graded health. Zero
		// values stay common so the seed paths keep getting exercised too.
		v.DiskFree = int64(r.Intn(4)) * 512
		v.Health = proto.StationHealth(r.Intn(5)) // 0 = ungraded
		v.IdleStreak = time.Duration(r.Intn(120)) * time.Minute
		v.AvgIdleLen = time.Duration(r.Intn(600)) * time.Minute
		// Random index history.
		tab.Update(v.Name, r.Intn(4), r.Intn(2) == 0)
		views = append(views, v)
	}
	return views, tab
}

// TestPropertyDecisionSafety: for any pool state and any config, a
// decision never violates the structural rules of §2.1/§2.4/§5.3.
func TestPropertyDecisionSafety(t *testing.T) {
	property := func(seed int64, burst bool, maxGrants, maxPreempts uint8) bool {
		r := rand.New(rand.NewSource(seed))
		views, tab := randomPool(r)
		byName := map[string]StationView{}
		for _, v := range views {
			byName[v.Name] = v
		}
		cfg := Config{
			MaxGrantsPerCycle:    int(maxGrants % 8),
			MaxPreemptsPerCycle:  int(maxPreempts % 4),
			AllowBurstPerStation: burst,
		}
		sanitized := cfg
		sanitized.sanitize()
		d := decide(views, tab, cfg)

		// Rule 1: every granted exec machine is idle, used at most once,
		// and honours its reservation.
		usedExec := map[string]bool{}
		grantsPerStation := map[string]int{}
		for _, g := range d.Grants {
			exec, ok := byName[g.Exec]
			if !ok || exec.State != proto.StationIdle {
				return false
			}
			if usedExec[g.Exec] {
				return false
			}
			usedExec[g.Exec] = true
			if exec.ReservedFor != "" && exec.ReservedFor != g.Requester {
				return false
			}
			req, ok := byName[g.Requester]
			if !ok || req.WaitingJobs == 0 {
				return false
			}
			grantsPerStation[g.Requester]++
		}
		// Rule 2: global and per-station caps.
		if len(d.Grants) > sanitized.MaxGrantsPerCycle {
			return false
		}
		for name, got := range grantsPerStation {
			if !burst && got > 1 {
				return false
			}
			if got > byName[name].WaitingJobs {
				return false
			}
		}
		// Rule 3: preemptions only of claimed machines, never for a
		// requester who does not strictly outrank the victim, never
		// self-serving, and capped.
		if len(d.Preempts) > sanitized.MaxPreemptsPerCycle {
			return false
		}
		usedPreempt := map[string]bool{}
		for _, p := range d.Preempts {
			exec, ok := byName[p.Exec]
			if !ok || exec.State != proto.StationClaimed {
				return false
			}
			if usedPreempt[p.Exec] {
				return false
			}
			usedPreempt[p.Exec] = true
			if p.Victim == p.Beneficiary {
				return false
			}
			if !tab.Better(p.Beneficiary, p.Victim) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecideIsPure: calling Decide twice on the same inputs
// yields identical decisions and never mutates the input views.
func TestPropertyDecideIsPure(t *testing.T) {
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		views, tab := randomPool(r)
		snapshot := append([]StationView(nil), views...)
		cfg := DefaultConfig()
		a := decide(views, tab, cfg)
		b := decide(views, tab, cfg)
		if len(a.Grants) != len(b.Grants) || len(a.Preempts) != len(b.Preempts) {
			return false
		}
		for i := range a.Grants {
			if a.Grants[i] != b.Grants[i] {
				return false
			}
		}
		for i := range a.Preempts {
			if a.Preempts[i] != b.Preempts[i] {
				return false
			}
		}
		for i := range views {
			if views[i] != snapshot[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
