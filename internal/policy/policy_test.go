package policy

import (
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/updown"
)

func table(t *testing.T) *updown.Table {
	t.Helper()
	return updown.NewTable(updown.DefaultConfig())
}

// decide runs one cycle of the default (Up-Down) policy.
func decide(stations []StationView, tab *updown.Table, cfg Config) Decision {
	return MustNew("").Decide(stations, tab, cfg)
}

func TestGrantGoesToHighestPriorityRequester(t *testing.T) {
	tab := table(t)
	// heavy has been holding capacity; light has been denied.
	for i := 0; i < 5; i++ {
		tab.Update("heavy", 4, true)
		tab.Update("light", 0, true)
	}
	stations := []StationView{
		{Name: "heavy", State: proto.StationOwner, WaitingJobs: 10},
		{Name: "light", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "ws3", State: proto.StationIdle},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 1 {
		t.Fatalf("grants = %+v, want exactly 1", d.Grants)
	}
	if d.Grants[0].Requester != "light" || d.Grants[0].Exec != "ws3" {
		t.Fatalf("grant = %+v, want light on ws3", d.Grants[0])
	}
	if len(d.Preempts) != 0 {
		t.Fatalf("unexpected preempts with idle machine available: %+v", d.Preempts)
	}
}

func TestPacingOneGrantPerCycle(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 5},
		{Name: "i1", State: proto.StationIdle},
		{Name: "i2", State: proto.StationIdle},
		{Name: "i3", State: proto.StationIdle},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 1 {
		t.Fatalf("default pacing violated: %d grants", len(d.Grants))
	}
	// Raising the global cap does not help a single requester: placement
	// cost lands on the requester's machine, so pacing is per-station too.
	cfg := DefaultConfig()
	cfg.MaxGrantsPerCycle = 3
	d = decide(stations, tab, cfg)
	if len(d.Grants) != 1 {
		t.Fatalf("raised cap, one requester: %d grants, want 1", len(d.Grants))
	}
}

func TestMultipleRequestersShareGrants(t *testing.T) {
	tab := table(t)
	tab.Touch("a")
	tab.Touch("b")
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 3},
		{Name: "b", State: proto.StationOwner, WaitingJobs: 3},
		{Name: "i1", State: proto.StationIdle},
		{Name: "i2", State: proto.StationIdle},
	}
	cfg := DefaultConfig()
	cfg.MaxGrantsPerCycle = 2
	d := decide(stations, tab, cfg)
	if len(d.Grants) != 2 {
		t.Fatalf("grants = %+v", d.Grants)
	}
	if d.Grants[0].Requester == d.Grants[1].Requester {
		t.Fatalf("one station took both grants: %+v", d.Grants)
	}
}

func TestPreemptionWhenNoIdleMachine(t *testing.T) {
	tab := table(t)
	// heavy holds 2 machines; light denied repeatedly.
	for i := 0; i < 5; i++ {
		tab.Update("heavy", 2, true)
		tab.Update("light", 0, true)
	}
	stations := []StationView{
		{Name: "heavy", State: proto.StationOwner, WaitingJobs: 3, HeldMachines: 2},
		{Name: "light", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "heavy/1", ForeignOwner: "heavy"},
		{Name: "e2", State: proto.StationClaimed, ForeignJob: "heavy/2", ForeignOwner: "heavy"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 0 {
		t.Fatalf("grants with no idle machines: %+v", d.Grants)
	}
	if len(d.Preempts) != 1 {
		t.Fatalf("preempts = %+v, want 1", d.Preempts)
	}
	p := d.Preempts[0]
	if p.Victim != "heavy" || p.Beneficiary != "light" {
		t.Fatalf("preempt = %+v", p)
	}
}

func TestNoPreemptionWhenRequesterDoesNotOutrank(t *testing.T) {
	tab := table(t)
	// Both equally ranked (same index) — no strict outranking, no preempt.
	tab.Touch("a")
	tab.Touch("b")
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "b/1", ForeignOwner: "b"},
	}
	// a registered before b in the table? Touch order above: a then b,
	// so a outranks b on the tie-break. Rebuild with b first.
	tab2 := table(t)
	tab2.Touch("b")
	tab2.Touch("a")
	d := decide(stations, tab2, DefaultConfig())
	if len(d.Preempts) != 0 {
		t.Fatalf("preempted despite not outranking: %+v", d.Preempts)
	}
}

func TestNeverPreemptOwnJob(t *testing.T) {
	tab := table(t)
	for i := 0; i < 3; i++ {
		tab.Update("a", 1, true) // holding and wanting more
	}
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 2, HeldMachines: 1},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "a/1", ForeignOwner: "a"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Preempts) != 0 {
		t.Fatalf("station preempted its own job: %+v", d.Preempts)
	}
}

func TestPreemptWorstPriorityVictim(t *testing.T) {
	tab := table(t)
	for i := 0; i < 2; i++ {
		tab.Update("mid", 1, false)
	}
	for i := 0; i < 8; i++ {
		tab.Update("worst", 3, false)
	}
	for i := 0; i < 3; i++ {
		tab.Update("light", 0, true)
	}
	stations := []StationView{
		{Name: "light", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "mid/1", ForeignOwner: "mid"},
		{Name: "e2", State: proto.StationClaimed, ForeignJob: "worst/1", ForeignOwner: "worst"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Preempts) != 1 || d.Preempts[0].Victim != "worst" {
		t.Fatalf("preempts = %+v, want the worst-priority holder evicted", d.Preempts)
	}
}

func TestDiskFullStationNotGranted(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "full", State: proto.StationIdle, DiskFree: 10},
		{Name: "roomy", State: proto.StationIdle, DiskFree: 1 << 20},
	}
	cfg := DefaultConfig()
	cfg.MinDiskBytes = 1024
	d := decide(stations, tab, cfg)
	if len(d.Grants) != 1 || d.Grants[0].Exec != "roomy" {
		t.Fatalf("grants = %+v, want roomy selected", d.Grants)
	}
}

func TestHistoryPlacementPrefersLongIdleMachines(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "flaky", State: proto.StationIdle, AvgIdleLen: 5 * time.Minute},
		{Name: "stable", State: proto.StationIdle, AvgIdleLen: 8 * time.Hour},
	}
	cfg := DefaultConfig()
	cfg.Placement = PlaceHistory
	d := decide(stations, tab, cfg)
	if len(d.Grants) != 1 || d.Grants[0].Exec != "stable" {
		t.Fatalf("grants = %+v, want the stable machine", d.Grants)
	}
	// First-fit picks by name instead.
	cfg.Placement = PlaceFirstFit
	d = decide(stations, tab, cfg)
	if d.Grants[0].Exec != "flaky" {
		t.Fatalf("first-fit grant = %+v, want name order", d.Grants)
	}
}

func TestNoRequestersNoActions(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "i1", State: proto.StationIdle},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "x/1", ForeignOwner: "x"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 0 || len(d.Preempts) != 0 {
		t.Fatalf("decision = %+v, want empty", d)
	}
}

func TestSuspendedStationNotGranted(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "s", State: proto.StationSuspended, ForeignJob: "b/1", ForeignOwner: "b"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 0 {
		t.Fatalf("granted a suspended station: %+v", d.Grants)
	}
	// Suspended stations are also not preemption victims (their job is
	// already stopped and will vacate via the grace path).
	if len(d.Preempts) != 0 {
		t.Fatalf("preempted a suspended station: %+v", d.Preempts)
	}
}

func TestFIFORanker(t *testing.T) {
	f := newFIFORanker(fifoMaxEntries)
	rank := f.Rank([]string{"c", "a", "b"}, nil, nil, nil)
	// First Rank call establishes order of appearance: c, a, b.
	if rank[0] != "c" || rank[1] != "a" || rank[2] != "b" {
		t.Fatalf("rank = %v", rank)
	}
	if !f.Better("c", "b", nil, nil, nil) || f.Better("b", "c", nil, nil, nil) {
		t.Fatal("Better inconsistent with rank")
	}
	// FIFO ignores consumption entirely: ranking is stable afterwards.
	rank2 := f.Rank([]string{"b", "a", "c"}, nil, nil, nil)
	if rank2[0] != "c" {
		t.Fatalf("rank2 = %v", rank2)
	}
}

// TestConfigSanitize pins the one rule that resolves a written Config:
// only Name set (or nothing) means DefaultConfig under that policy; any
// other field set keeps what was written and defaults only the fields
// with no usable zero, so MaxPreemptsPerCycle 0 there is "off".
func TestConfigSanitize(t *testing.T) {
	def := DefaultConfig()
	named := def
	named.Name = "fifo"
	for _, tc := range []struct {
		in, want Config
	}{
		{Config{}, def},
		{Config{Name: "fifo"}, named},
		{Config{MaxGrantsPerCycle: 4, Placement: PlaceFirstFit},
			Config{MaxGrantsPerCycle: 4, Placement: PlaceFirstFit}},
		{Config{MaxPreemptsPerCycle: 3},
			Config{MaxGrantsPerCycle: 1, MaxPreemptsPerCycle: 3, Placement: PlaceFirstFit}},
		{Config{Name: "fifo", AllowBurstPerStation: true},
			Config{Name: "fifo", MaxGrantsPerCycle: 1, Placement: PlaceFirstFit, AllowBurstPerStation: true}},
		{Config{MaxGrantsPerCycle: -2, MaxPreemptsPerCycle: -1},
			Config{MaxGrantsPerCycle: 1, Placement: PlaceFirstFit}},
	} {
		got := tc.in
		got.sanitize()
		if got != tc.want {
			t.Errorf("sanitize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestMaxPreemptsZeroDisablesPreemption(t *testing.T) {
	tab := table(t)
	for i := 0; i < 5; i++ {
		tab.Update("heavy", 1, false)
		tab.Update("light", 0, true)
	}
	stations := []StationView{
		{Name: "light", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "heavy/1", ForeignOwner: "heavy"},
	}
	cfg := DefaultConfig()
	cfg.MaxPreemptsPerCycle = 0
	// sanitize must keep 0 as "disabled", not reset to 1.
	d := decide(stations, tab, cfg)
	if len(d.Preempts) != 0 {
		t.Fatalf("preempts = %+v, want none", d.Preempts)
	}
}

func TestReservedMachineOnlyGrantedToHolder(t *testing.T) {
	tab := table(t)
	tab.Touch("holder")
	tab.Touch("other")
	stations := []StationView{
		{Name: "other", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "exec", State: proto.StationIdle, ReservedFor: "holder"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Grants) != 0 {
		t.Fatalf("reserved machine granted to non-holder: %+v", d.Grants)
	}
	// The holder gets it.
	stations = append(stations, StationView{
		Name: "holder", State: proto.StationOwner, WaitingJobs: 1,
	})
	cfg := DefaultConfig()
	cfg.MaxGrantsPerCycle = 2
	d = decide(stations, tab, cfg)
	if len(d.Grants) != 1 || d.Grants[0].Requester != "holder" || d.Grants[0].Exec != "exec" {
		t.Fatalf("grants = %+v, want holder on exec", d.Grants)
	}
}

func TestReservedIdleMachineDoesNotBlockPreemption(t *testing.T) {
	// The only idle machine is reserved for someone else; a requester
	// that outranks a running job's owner must still preempt.
	tab := table(t)
	for i := 0; i < 5; i++ {
		tab.Update("heavy", 1, false)
		tab.Update("light", 0, true)
	}
	stations := []StationView{
		{Name: "light", State: proto.StationOwner, WaitingJobs: 1},
		{Name: "idlebutres", State: proto.StationIdle, ReservedFor: "someoneelse"},
		{Name: "e1", State: proto.StationClaimed, ForeignJob: "heavy/1", ForeignOwner: "heavy"},
	}
	d := decide(stations, tab, DefaultConfig())
	if len(d.Preempts) != 1 || d.Preempts[0].Victim != "heavy" {
		t.Fatalf("preempts = %+v, want heavy evicted", d.Preempts)
	}
}

func TestBurstPerStationAblationSwitch(t *testing.T) {
	tab := table(t)
	stations := []StationView{
		{Name: "a", State: proto.StationOwner, WaitingJobs: 5},
		{Name: "i1", State: proto.StationIdle},
		{Name: "i2", State: proto.StationIdle},
		{Name: "i3", State: proto.StationIdle},
	}
	cfg := DefaultConfig()
	cfg.MaxGrantsPerCycle = 8
	cfg.AllowBurstPerStation = true
	d := decide(stations, tab, cfg)
	if len(d.Grants) != 3 {
		t.Fatalf("burst grants = %d, want 3 (all idle machines)", len(d.Grants))
	}
	for _, g := range d.Grants {
		if g.Requester != "a" {
			t.Fatalf("grant = %+v", g)
		}
	}
	// Burst never exceeds the station's waiting jobs.
	stations[0].WaitingJobs = 2
	d = decide(stations, tab, cfg)
	if len(d.Grants) != 2 {
		t.Fatalf("grants = %d, want 2 (bounded by waiting jobs)", len(d.Grants))
	}
}
