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
	if tab.Better("heavy", "light") || !tab.Earlier("heavy", "light") {
		t.Fatal("heavy outranks light, or registration order was lost")
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
	if tab.Better("a", "b") || !tab.Earlier("b", "a") || tab.Earlier("a", "b") {
		t.Fatal("Better or Earlier disagrees with registration order")
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
	// A removed station comes after every registered one, and re-enters
	// last when it comes back.
	tab.Touch("b")
	if !tab.Earlier("b", "a") || tab.Earlier("a", "b") {
		t.Fatal("removed station is not last in registration order")
	}
	tab.Touch("a")
	if !tab.Earlier("b", "a") {
		t.Fatal("re-touched station kept its old registration slot")
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
			Config{UpRate: def.UpRate, DownRate: 7, MaxAbs: def.MaxAbs}},
		{Config{UpRate: -1, DecayRate: -1},
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
