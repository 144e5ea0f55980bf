package policy

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"condor/internal/decision"
	"condor/internal/proto"
	"condor/internal/updown"
)

// The audit hooks must be strictly observational: attaching a builder
// may never change what the pipeline decides. These tests pin that
// contract against the committed golden fixtures and the randomized
// conformance pools, for every registered policy.

// TestGoldenEquivalenceAudited replays every golden fixture through
// DecideAudited with a live builder and requires the identical decision
// the recorder-off path produced when the fixtures were committed.
func TestGoldenEquivalenceAudited(t *testing.T) {
	gf := loadGolden(t)
	for _, fx := range gf.Fixtures {
		tab := updown.NewTable(updown.DefaultConfig())
		tab.Restore(fx.Indexes)
		aud := decision.NewBuilder(1, time.Unix(0, 0))
		got := MustNew("updown").DecideAudited(fx.Views, tab, fx.Cfg, aud)
		if !reflect.DeepEqual(got, fx.Decision) {
			t.Errorf("fixture seed=%d: audited decision diverged\n got: %+v\nwant: %+v",
				fx.Seed, got, fx.Decision)
			continue
		}
		a := aud.Done()
		if a.Policy != "updown" || a.Stations != len(fx.Views) {
			t.Errorf("fixture seed=%d: audit header %+v", fx.Seed, a)
		}
		// The audit's grants must mirror the decision's, in order.
		if len(a.Grants) != len(got.Grants) {
			t.Errorf("fixture seed=%d: %d audited grants, %d decided", fx.Seed, len(a.Grants), len(got.Grants))
			continue
		}
		for i, g := range got.Grants {
			if a.Grants[i].Requester != g.Requester || a.Grants[i].Exec != g.Exec {
				t.Errorf("fixture seed=%d: audit grant %d = %+v, decision %+v", fx.Seed, i, a.Grants[i], g)
			}
		}
		if len(a.Preempts) < len(got.Preempts) {
			t.Errorf("fixture seed=%d: %d audited preempt passes < %d decided preempts",
				fx.Seed, len(a.Preempts), len(got.Preempts))
		}
	}
}

// TestConformanceAuditObservational: for every registered policy over
// randomized pools, the audited and unaudited paths decide identically,
// and the audit's contents are consistent with the decision.
func TestConformanceAuditObservational(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			property := func(seed int64, burst bool, maxGrants, maxPreempts uint8, minDisk bool, placement uint8) bool {
				r := rand.New(rand.NewSource(seed))
				views, tab := randomPool(r)
				cfg := conformanceCfg(burst, maxGrants, maxPreempts, minDisk, placement)
				pol := MustNew(name)

				plain := pol.Decide(views, tab, cfg)
				aud := decision.NewBuilder(uint64(seed), time.Unix(0, 0))
				audited := pol.DecideAudited(views, tab, cfg, aud)
				if !reflect.DeepEqual(plain, audited) {
					t.Logf("seed %d: audit changed the decision\nplain:   %+v\naudited: %+v", seed, plain, audited)
					return false
				}
				a := aud.Done()
				if a.Policy != pol.Name() {
					t.Logf("seed %d: audit policy %q, want %q", seed, a.Policy, pol.Name())
					return false
				}
				// Every granted machine was audited as admitted (in Idle) and
				// never also rejected in the candidate phase.
				idle := map[string]bool{}
				for _, n := range a.Idle {
					idle[n] = true
				}
				candidateRejected := map[string]bool{}
				for _, rej := range a.Rejections {
					if rej.Requester == "" {
						candidateRejected[rej.Station] = true
					}
					if rej.Predicate == "" {
						t.Logf("seed %d: rejection with empty predicate %+v", seed, rej)
						return false
					}
				}
				for _, g := range audited.Grants {
					if !idle[g.Exec] {
						t.Logf("seed %d: granted machine %q not in audited idle set %v", seed, g.Exec, a.Idle)
						return false
					}
					if candidateRejected[g.Exec] {
						t.Logf("seed %d: machine %q both candidate-rejected and granted", seed, g.Exec)
						return false
					}
				}
				// Requesters with waiting jobs appear in the rank audit
				// exactly once, positions 0..n-1 in order.
				for i, e := range a.Requesters {
					if e.Position != i {
						t.Logf("seed %d: rank entry %d has position %d", seed, i, e.Position)
						return false
					}
				}
				// Every decided preemption has a matching audited outcome.
				for _, p := range audited.Preempts {
					found := false
					for i := range a.Preempts {
						if a.Preempts[i].Exec == p.Exec && a.Preempts[i].Victim == p.Victim {
							found = true
						}
					}
					if !found {
						t.Logf("seed %d: preempt %+v missing from audit %+v", seed, p, a.Preempts)
						return false
					}
				}
				return true
			}
			if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAuditExplainsDiskRejection pins the operator-facing detail: a
// disk-short station's rejection carries the min-disk predicate with
// threshold and observed values, and the starved requester gets an
// unserved reason.
func TestAuditExplainsDiskRejection(t *testing.T) {
	views := []StationView{
		{Name: "asker", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "small", State: proto.StationIdle, DiskFree: 512},
	}
	tab := updown.NewTable(updown.DefaultConfig())
	tab.Touch("asker")
	cfg := DefaultConfig()
	cfg.MinDiskBytes = 1 << 20

	aud := decision.NewBuilder(7, time.Unix(0, 0))
	d := MustNew("updown").DecideAudited(views, tab, cfg, aud)
	if len(d.Grants) != 0 {
		t.Fatalf("granted %+v despite the disk predicate", d.Grants)
	}
	a := aud.Done()
	var rej *decision.Rejection
	for i := range a.Rejections {
		if a.Rejections[i].Station == "small" && a.Rejections[i].Predicate == "min-disk" {
			rej = &a.Rejections[i]
		}
	}
	if rej == nil {
		t.Fatalf("no min-disk rejection for small in %+v", a.Rejections)
	}
	if rej.Requester != "" {
		t.Errorf("disk rejection should be candidate-phase (requester-blind), got %q", rej.Requester)
	}
	if rej.Threshold == "" || rej.Observed == "" {
		t.Errorf("rejection lacks threshold/observed: %+v", rej)
	}
	if len(a.Unserved) != 1 || a.Unserved[0].Requester != "asker" {
		t.Fatalf("unserved %+v, want asker", a.Unserved)
	}
	// Rank audit carries the Up-Down schedule index as the score.
	if len(a.Requesters) != 1 || !a.Requesters[0].HasScore {
		t.Fatalf("rank audit %+v lacks a score", a.Requesters)
	}
}

// TestDecideAuditedNilBuilderAllocs pins the recorder-off contract at
// the pipeline level: a nil builder must not add a single allocation
// over the unaudited path (they are the same code path).
func TestDecideAuditedNilBuilderAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	views, tab := randomPool(r)
	cfg := DefaultConfig()
	pol := MustNew("updown")
	pol.Decide(views, tab, cfg) // warm interned metrics

	base := testing.AllocsPerRun(200, func() { pol.Decide(views, tab, cfg) })
	nilAud := testing.AllocsPerRun(200, func() { pol.DecideAudited(views, tab, cfg, nil) })
	if nilAud > base {
		t.Fatalf("nil-builder path allocates %v/op, plain path %v/op", nilAud, base)
	}
}
