package avail

import (
	"fmt"
	"testing"
	"time"

	"condor/internal/sim"
)

var monthStart = time.Date(1987, time.November, 2, 0, 0, 0, 0, time.UTC) // a Monday

func TestActivityFactorShape(t *testing.T) {
	afternoon := time.Date(1987, 11, 4, 15, 0, 0, 0, time.UTC) // Wednesday 15:00
	night := time.Date(1987, 11, 4, 3, 0, 0, 0, time.UTC)
	saturday := time.Date(1987, 11, 7, 15, 0, 0, 0, time.UTC)
	if ActivityFactor(afternoon) <= ActivityFactor(night) {
		t.Fatal("weekday afternoon must be busier than night")
	}
	if ActivityFactor(saturday) >= ActivityFactor(afternoon) {
		t.Fatal("weekend must be quieter than weekday afternoon")
	}
	if ActivityFactor(night) <= 0 {
		t.Fatal("factor must stay positive")
	}
}

func TestPoolActiveFractionNearPaper(t *testing.T) {
	// 23 machines over 30 days: mean local utilization should land near
	// the paper's 25% (±10 points — it is a stochastic model).
	rng := sim.NewRNG(42)
	end := monthStart.Add(30 * 24 * time.Hour)
	total := 0.0
	const n = 23
	for i := 0; i < n; i++ {
		m := NewMachine(fmt.Sprintf("ws%02d", i), ClassFor(i, n), rng.Derive())
		tr := m.GenerateTrace(monthStart, end)
		total += tr.ActiveFraction(monthStart, end)
	}
	mean := total / n
	if mean < 0.15 || mean > 0.35 {
		t.Fatalf("pool mean active fraction = %.3f, want ≈0.25", mean)
	}
}

func TestDiurnalShapeInTraces(t *testing.T) {
	// Aggregate weekday-afternoon activity must exceed night activity.
	rng := sim.NewRNG(7)
	end := monthStart.Add(28 * 24 * time.Hour)
	var afternoon, night float64
	var samples int
	const n = 23
	for i := 0; i < n; i++ {
		m := NewMachine(fmt.Sprintf("ws%02d", i), ClassFor(i, n), rng.Derive())
		tr := m.GenerateTrace(monthStart, end)
		for day := 0; day < 28; day++ {
			dayStart := monthStart.Add(time.Duration(day) * 24 * time.Hour)
			if wd := dayStart.Weekday(); wd == time.Saturday || wd == time.Sunday {
				continue
			}
			afternoon += tr.ActiveFraction(dayStart.Add(14*time.Hour), dayStart.Add(18*time.Hour))
			night += tr.ActiveFraction(dayStart.Add(1*time.Hour), dayStart.Add(6*time.Hour))
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no weekday samples")
	}
	if afternoon <= night*1.5 {
		t.Fatalf("afternoon activity %.3f not clearly above night %.3f", afternoon/float64(samples), night/float64(samples))
	}
}

func TestPersistenceClassesDiffer(t *testing.T) {
	rng := sim.NewRNG(3)
	classes := DefaultClasses()
	end := monthStart.Add(30 * 24 * time.Hour)
	stable := NewMachine("s", classes[0], rng.Derive()).GenerateTrace(monthStart, end)
	busy := NewMachine("b", classes[2], rng.Derive()).GenerateTrace(monthStart, end)
	// The busy machine flips state far more often.
	if len(busy.Flips) <= len(stable.Flips) {
		t.Fatalf("busy flips %d, stable flips %d — persistence classes indistinct",
			len(busy.Flips), len(stable.Flips))
	}
	if stable.ActiveFraction(monthStart, end) >= busy.ActiveFraction(monthStart, end) {
		t.Fatal("stable machine busier than busy machine")
	}
}

func TestTraceFlipsAreMonotonic(t *testing.T) {
	rng := sim.NewRNG(9)
	m := NewMachine("x", DefaultClasses()[1], rng)
	tr := m.GenerateTrace(monthStart, monthStart.Add(7*24*time.Hour))
	for i := 1; i < len(tr.Flips); i++ {
		if !tr.Flips[i].After(tr.Flips[i-1]) {
			t.Fatalf("flips not strictly increasing at %d", i)
		}
	}
}

func TestActiveAtAndFractionHandBuilt(t *testing.T) {
	base := monthStart
	tr := Trace{
		Name: "hand",
		// idle [0,1h), active [1h,2h), idle [2h,4h), active [4h,…)
		Flips: []time.Time{base.Add(1 * time.Hour), base.Add(2 * time.Hour), base.Add(4 * time.Hour)},
	}
	if tr.ActiveAt(base.Add(30 * time.Minute)) {
		t.Fatal("t=0.5h should be idle")
	}
	if !tr.ActiveAt(base.Add(90 * time.Minute)) {
		t.Fatal("t=1.5h should be active")
	}
	if tr.ActiveAt(base.Add(3 * time.Hour)) {
		t.Fatal("t=3h should be idle")
	}
	if !tr.ActiveAt(base.Add(5 * time.Hour)) {
		t.Fatal("t=5h should be active")
	}
	// Over [0, 5h): active during [1,2) and [4,5) = 2h of 5h.
	got := tr.ActiveFraction(base, base.Add(5*time.Hour))
	if got < 0.399 || got > 0.401 {
		t.Fatalf("fraction = %v, want 0.4", got)
	}
	// Window starting mid-active interval: [1.5h, 2.5h) → 0.5h active.
	got = tr.ActiveFraction(base.Add(90*time.Minute), base.Add(150*time.Minute))
	if got < 0.499 || got > 0.501 {
		t.Fatalf("mid-window fraction = %v, want 0.5", got)
	}
	if tr.ActiveFraction(base, base) != 0 {
		t.Fatal("empty window must be 0")
	}
}

func TestIntervalClamp(t *testing.T) {
	if clampInterval(0) != time.Minute {
		t.Fatal("lower clamp broken")
	}
	if clampInterval(100*24*time.Hour) != 48*time.Hour {
		t.Fatal("upper clamp broken")
	}
	if clampInterval(time.Hour) != time.Hour {
		t.Fatal("identity clamp broken")
	}
}

func TestClassForDeterministicMix(t *testing.T) {
	counts := map[string]int{}
	const n = 23
	for i := 0; i < n; i++ {
		counts[ClassFor(i, n).Name]++
	}
	if counts["stable"] == 0 || counts["normal"] == 0 || counts["busy"] == 0 {
		t.Fatalf("class mix = %v, want all three present", counts)
	}
	if ClassFor(0, 0).Name == "" {
		t.Fatal("n=0 must not panic and must return a class")
	}
}

func TestTraceDeterministicFromSeed(t *testing.T) {
	mk := func() Trace {
		return NewMachine("x", DefaultClasses()[1], sim.NewRNG(123)).
			GenerateTrace(monthStart, monthStart.Add(7*24*time.Hour))
	}
	a, b := mk(), mk()
	if len(a.Flips) != len(b.Flips) {
		t.Fatal("same seed produced different traces")
	}
	for i := range a.Flips {
		if !a.Flips[i].Equal(b.Flips[i]) {
			t.Fatalf("flip %d differs", i)
		}
	}
}
