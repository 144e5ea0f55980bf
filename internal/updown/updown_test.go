package updown

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIndexStartsAtZero(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Touch("ws1")
	if got := tab.Index("ws1"); got != 0 {
		t.Fatalf("initial index = %v, want 0", got)
	}
	if got := tab.Index("unknown"); got != 0 {
		t.Fatalf("unknown station index = %v, want 0", got)
	}
}

func TestHoldingCapacityRaisesIndex(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Update("heavy", 5, true)
	tab.Update("heavy", 5, true)
	if got := tab.Index("heavy"); got != 10 {
		t.Fatalf("index after holding 5 machines for 2 ticks = %v, want 10", got)
	}
}

func TestDeniedDemandLowersIndex(t *testing.T) {
	tab := NewTable(DefaultConfig())
	for i := 0; i < 4; i++ {
		tab.Update("light", 0, true)
	}
	if got := tab.Index("light"); got != -4 {
		t.Fatalf("index after 4 denied ticks = %v, want -4", got)
	}
}

func TestInactiveDecaysTowardZero(t *testing.T) {
	cfg := Config{UpRate: 1, DownRate: 1, DecayRate: 2, MaxAbs: 100}
	tab := NewTable(cfg)
	for i := 0; i < 5; i++ {
		tab.Update("a", 1, false) // build up to +5
	}
	for i := 0; i < 2; i++ {
		tab.Update("a", 0, false) // decay 2 per tick
	}
	if got := tab.Index("a"); got != 1 {
		t.Fatalf("index = %v, want 1 after decay", got)
	}
	tab.Update("a", 0, false)
	if got := tab.Index("a"); got != 0 {
		t.Fatalf("decay overshoot: index = %v, want exactly 0", got)
	}
	// Negative side decays upward.
	tab.Update("b", 0, true)
	tab.Update("b", 0, true)
	tab.Update("b", 0, true) // -3
	tab.Update("b", 0, false)
	if got := tab.Index("b"); got != -1 {
		t.Fatalf("negative decay: index = %v, want -1", got)
	}
	tab.Update("b", 0, false)
	if got := tab.Index("b"); got != 0 {
		t.Fatalf("negative decay clamp: index = %v, want 0", got)
	}
}

func TestLightUserOutranksHeavyUser(t *testing.T) {
	// The paper's core fairness claim: a heavy user consuming many
	// machines must not inhibit a light user's access.
	tab := NewTable(DefaultConfig())
	tab.Touch("heavy")
	tab.Touch("light")
	// Heavy has been running 20 machines for 10 cycles.
	for i := 0; i < 10; i++ {
		tab.Update("heavy", 20, true)
	}
	// Light just arrived and was denied once.
	tab.Update("light", 0, true)
	if !tab.Better("light", "heavy") {
		t.Fatalf("light (idx %v) should outrank heavy (idx %v)",
			tab.Index("light"), tab.Index("heavy"))
	}
	rank := tab.Rank([]string{"heavy", "light"})
	if rank[0] != "light" {
		t.Fatalf("rank = %v", rank)
	}
}

func TestHeavyUserRegainsAccessAfterWaiting(t *testing.T) {
	// Steady access for heavy users: after enough denied cycles, a heavy
	// user's index falls below a newly-arrived light user's.
	tab := NewTable(DefaultConfig())
	for i := 0; i < 5; i++ {
		tab.Update("heavy", 10, true) // index 50
	}
	for i := 0; i < 60; i++ {
		tab.Update("heavy", 0, true) // denied: falls by 1 per tick
	}
	tab.Update("fresh", 1, true) // fresh user holding one machine
	if !tab.Better("heavy", "fresh") {
		t.Fatalf("heavy (idx %v) should eventually outrank fresh holder (idx %v)",
			tab.Index("heavy"), tab.Index("fresh"))
	}
}

func TestTieBreakIsDeterministic(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Touch("b")
	tab.Touch("a")
	// Both at zero: registration order (b first) wins.
	if !tab.Better("b", "a") {
		t.Fatal("tie-break should favor earlier registration")
	}
	rank := tab.Rank([]string{"a", "b"})
	if rank[0] != "b" {
		t.Fatalf("rank = %v", rank)
	}
}

func TestClampMaxAbs(t *testing.T) {
	cfg := Config{UpRate: 100, DownRate: 100, DecayRate: 1, MaxAbs: 250}
	tab := NewTable(cfg)
	for i := 0; i < 10; i++ {
		tab.Update("up", 10, false)
		tab.Update("down", 0, true)
	}
	if got := tab.Index("up"); got != 250 {
		t.Fatalf("clamped high = %v, want 250", got)
	}
	if got := tab.Index("down"); got != -250 {
		t.Fatalf("clamped low = %v, want -250", got)
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Update("a", 3, false)
	tab.Update("b", 0, true)
	in := []string{"a", "b"}
	_ = tab.Rank(in)
	if in[0] != "a" || in[1] != "b" {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestRemove(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Update("a", 5, false)
	tab.Remove("a")
	if got := tab.Index("a"); got != 0 {
		t.Fatalf("index after remove = %v", got)
	}
	snap := tab.Snapshot()
	if _, ok := snap["a"]; ok {
		t.Fatal("snapshot still contains removed station")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	tab := NewTable(DefaultConfig())
	tab.Update("a", 1, false)
	snap := tab.Snapshot()
	snap["a"] = 999
	if tab.Index("a") == 999 {
		t.Fatal("snapshot aliases internal state")
	}
}

// TestConfigSanitize pins the one rule that resolves a written Config:
// zero means DefaultConfig; a partially filled Config keeps what it set
// (DecayRate 0 included) and defaults only the fields with no usable
// zero.
func TestConfigSanitize(t *testing.T) {
	def := DefaultConfig()
	for _, tc := range []struct {
		in, want Config
	}{
		{Config{}, def},
		{Config{DownRate: 7},
			Config{UpRate: def.UpRate, DownRate: 7, MaxAbs: def.MaxAbs, HistoryLen: def.HistoryLen}},
		{Config{UpRate: -1, DecayRate: -1, HistoryLen: -1},
			Config{UpRate: def.UpRate, DownRate: def.DownRate, MaxAbs: def.MaxAbs}},
	} {
		got := tc.in
		got.sanitize()
		if got != tc.want {
			t.Errorf("sanitize(%+v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	tab := NewTable(Config{}) // all zero: must not divide/lock up
	tab.Update("a", 1, false)
	if tab.Index("a") <= 0 {
		t.Fatal("zero config produced no index movement")
	}
}

func TestIndexIsAlwaysFinite(t *testing.T) {
	tab := NewTable(DefaultConfig())
	f := func(held uint8, wanting bool) bool {
		tab.Update("x", int(held%32), wanting)
		idx := tab.Index("x")
		return !math.IsNaN(idx) && !math.IsInf(idx, 0) && math.Abs(idx) <= 10_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryBounded(t *testing.T) {
	tb := NewTable(Config{HistoryLen: 4})
	for i := 0; i < 10; i++ {
		tb.Update("ws", 1, false) // +1 per cycle
	}
	h := tb.History("ws")
	if len(h) != 4 {
		t.Fatalf("history len = %d, want 4", len(h))
	}
	for i, v := range h {
		if want := float64(7 + i); v != want {
			t.Errorf("h[%d] = %v, want %v (oldest first)", i, v, want)
		}
	}
	if tb.History("unknown") != nil {
		t.Error("unknown station should have nil history")
	}
}

func TestHistoryDisabled(t *testing.T) {
	tb := NewTable(Config{HistoryLen: -1})
	tb.Update("ws", 1, false)
	if h := tb.History("ws"); h != nil {
		t.Errorf("history disabled but got %v", h)
	}
}

func TestHistoryRestoreAndRemove(t *testing.T) {
	tb := NewTable(Config{HistoryLen: 8})
	tb.Update("a", 2, false)
	tb.Update("a", 2, false)
	tb.Update("b", 0, true)

	// Remove drops the trajectory with the station.
	tb.Remove("b")
	if h := tb.History("b"); h != nil {
		t.Fatalf("removed station kept history %v", h)
	}

	// Restore seeds a fresh one-point trajectory from the snapshot value,
	// discarding pre-restore points (they are not part of the snapshot).
	tb.Restore(map[string]float64{"a": 5, "b": -3})
	if h := tb.History("a"); len(h) != 1 || h[0] != 5 {
		t.Errorf("restored history a = %v, want [5]", h)
	}
	if h := tb.History("b"); len(h) != 1 || h[0] != -3 {
		t.Errorf("restored history b = %v, want [-3]", h)
	}

	// Updates after a restore extend the seeded trajectory.
	tb.Update("a", 1, false)
	if h := tb.History("a"); len(h) != 2 || h[1] != 6 {
		t.Errorf("post-restore history a = %v, want [5 6]", h)
	}
	all := tb.Histories()
	if len(all) != 2 || len(all["a"]) != 2 {
		t.Errorf("Histories = %v", all)
	}
}
