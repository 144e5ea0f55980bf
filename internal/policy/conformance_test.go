package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"condor/internal/proto"
	"condor/internal/updown"
)

// The policy conformance suite: one shared property harness run against
// every registered policy. These are the invariants NO policy may
// break, whatever its ranking or placement taste — they are the
// system's safety rules (§2.1 owner primacy, §4 pacing and disk, §5.3
// reservations, §2.4 preemption only with strictly better priority),
// not scheduling preferences. A new policy is added to the registry and
// passes this suite, or it does not ship; see DESIGN.md §"Scheduling
// pipeline".

// healthEligible mirrors the pipeline's requesterEligible/HealthPredicate.
func healthEligible(h proto.StationHealth) bool {
	return h == 0 || h == proto.HealthHealthy
}

// conformanceCfg derives a randomized-but-bounded cycle config.
func conformanceCfg(burst bool, maxGrants, maxPreempts uint8, minDisk bool, placement uint8) Config {
	cfg := Config{
		MaxGrantsPerCycle:    int(maxGrants % 8),
		MaxPreemptsPerCycle:  int(maxPreempts % 4),
		AllowBurstPerStation: burst,
		Placement:            PlacementStrategy(placement%2) + 1,
	}
	if minDisk {
		cfg.MinDiskBytes = 1024
	}
	return cfg
}

// checkDecisionInvariants asserts every rule of the conformance
// contract against one decision. It returns an error describing the
// first violation so quick.Check failures are diagnosable.
func checkDecisionInvariants(pol *Policy, views []StationView, tab *updown.Table, cfg Config, d Decision) error {
	sanitized := cfg
	sanitized.sanitize()
	byName := make(map[string]StationView, len(views))
	for _, v := range views {
		byName[v.Name] = v
	}

	// Grants: exec must be idle, healthy-eligible, disk-sufficient,
	// used at most once, and reservation-honouring; the requester must
	// exist, have waiting jobs, and be healthy-eligible.
	usedExec := map[string]bool{}
	grantsPerStation := map[string]int{}
	for _, g := range d.Grants {
		exec, ok := byName[g.Exec]
		if !ok {
			return fmt.Errorf("grant of unknown machine %q", g.Exec)
		}
		if exec.State != proto.StationIdle {
			return fmt.Errorf("grant of non-idle machine %q (%v)", g.Exec, exec.State)
		}
		if !healthEligible(exec.Health) {
			return fmt.Errorf("grant of non-healthy machine %q (%v)", g.Exec, exec.Health)
		}
		if sanitized.MinDiskBytes > 0 && exec.DiskFree < sanitized.MinDiskBytes {
			return fmt.Errorf("grant of machine %q with %d B free < MinDiskBytes %d",
				g.Exec, exec.DiskFree, sanitized.MinDiskBytes)
		}
		if usedExec[g.Exec] {
			return fmt.Errorf("machine %q granted twice", g.Exec)
		}
		usedExec[g.Exec] = true
		if exec.ReservedFor != "" && exec.ReservedFor != g.Requester {
			return fmt.Errorf("machine %q reserved for %q granted to %q",
				g.Exec, exec.ReservedFor, g.Requester)
		}
		req, ok := byName[g.Requester]
		if !ok {
			return fmt.Errorf("grant to unknown requester %q", g.Requester)
		}
		if req.WaitingJobs == 0 {
			return fmt.Errorf("grant to requester %q with no waiting jobs", g.Requester)
		}
		if !healthEligible(req.Health) {
			return fmt.Errorf("grant to non-healthy requester %q (%v)", g.Requester, req.Health)
		}
		grantsPerStation[g.Requester]++
	}
	// Caps: global, per-station pacing, and per-station demand.
	if len(d.Grants) > sanitized.MaxGrantsPerCycle {
		return fmt.Errorf("%d grants > MaxGrantsPerCycle %d", len(d.Grants), sanitized.MaxGrantsPerCycle)
	}
	for name, got := range grantsPerStation {
		if !sanitized.AllowBurstPerStation && got > 1 {
			return fmt.Errorf("station %q got %d grants in one cycle without burst", name, got)
		}
		if got > byName[name].WaitingJobs {
			return fmt.Errorf("station %q got %d grants for %d waiting jobs",
				name, got, byName[name].WaitingJobs)
		}
	}

	// Preempts: capped, each machine at most once, only claimed
	// machines running a foreign job, never self-serving, and the
	// beneficiary strictly outranks the victim under THIS policy's own
	// ordering.
	if len(d.Preempts) > sanitized.MaxPreemptsPerCycle {
		return fmt.Errorf("%d preempts > MaxPreemptsPerCycle %d",
			len(d.Preempts), sanitized.MaxPreemptsPerCycle)
	}
	usedPreempt := map[string]bool{}
	for _, p := range d.Preempts {
		exec, ok := byName[p.Exec]
		if !ok {
			return fmt.Errorf("preempt on unknown machine %q", p.Exec)
		}
		if exec.State != proto.StationClaimed || exec.ForeignJob == "" {
			return fmt.Errorf("preempt on machine %q not running a foreign job", p.Exec)
		}
		if usedPreempt[p.Exec] {
			return fmt.Errorf("machine %q preempted twice", p.Exec)
		}
		usedPreempt[p.Exec] = true
		if p.Victim == p.Beneficiary {
			return fmt.Errorf("station %q preempted to serve itself", p.Victim)
		}
		if !pol.Ranker.Better(p.Beneficiary, p.Victim, newPool(views), tab, &sanitized) {
			return fmt.Errorf("beneficiary %q does not strictly outrank victim %q under policy %s",
				p.Beneficiary, p.Victim, pol.Name())
		}
	}
	return nil
}

// TestConformanceAllPolicies runs the shared invariant harness against
// every registered policy over randomized pools and configs.
func TestConformanceAllPolicies(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			property := func(seed int64, burst bool, maxGrants, maxPreempts uint8, minDisk bool, placement uint8) bool {
				r := rand.New(rand.NewSource(seed))
				views, tab := randomPool(r)
				cfg := conformanceCfg(burst, maxGrants, maxPreempts, minDisk, placement)
				// Fresh instance per pool: stateful rankers (FIFO) must
				// not leak arrival order across property cases.
				pol := MustNew(name)
				snapshot := append([]StationView(nil), views...)

				d := pol.Decide(views, tab, cfg)
				if err := checkDecisionInvariants(pol, views, tab, cfg, d); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				// Determinism: the same snapshot yields the same decision,
				// even for stateful rankers.
				if again := pol.Decide(views, tab, cfg); !reflect.DeepEqual(d, again) {
					t.Logf("seed %d: decision not deterministic\n first: %+v\nsecond: %+v", seed, d, again)
					return false
				}
				// Purity: Decide never mutates its input views.
				for i := range views {
					if views[i] != snapshot[i] {
						t.Logf("seed %d: Decide mutated views[%d]", seed, i)
						return false
					}
				}
				return true
			}
			if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceRegistry: the registry carries at least the four
// shipped policies, resolves the empty name to updown, and rejects
// unknown names with a helpful error.
func TestConformanceRegistry(t *testing.T) {
	want := []string{"backfill", "busiest-first", "fifo", "updown"}
	got := Names()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing policy %q (have %v)", w, got)
		}
	}
	p, err := New("")
	if err != nil || p.Name() != DefaultPolicy {
		t.Fatalf("New(\"\") = %v, %v; want the %s policy", p, err, DefaultPolicy)
	}
	if _, err := New("no-such-policy"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
}
