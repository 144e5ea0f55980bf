package sim

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(1987, time.November, 2, 0, 0, 0, 0, time.UTC)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(t0)
	var order []string
	e.At(t0.Add(3*time.Second), func(time.Time) { order = append(order, "c") })
	e.At(t0.Add(1*time.Second), func(time.Time) { order = append(order, "a") })
	e.At(t0.Add(2*time.Second), func(time.Time) { order = append(order, "b") })
	if err := e.RunAll(100); err != nil {
		t.Fatal(err)
	}
	got := order[0] + order[1] + order[2]
	if got != "abc" {
		t.Fatalf("event order = %q, want abc", got)
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(t0)
	var order []int
	at := t0.Add(time.Minute)
	for i := 0; i < 10; i++ {
		i := i
		e.At(at, func(time.Time) { order = append(order, i) })
	}
	if err := e.RunAll(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break broken)", i, v, i)
		}
	}
}

func TestEngineClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(t0)
	var seen time.Time
	e.After(90*time.Second, func(now time.Time) { seen = now })
	if err := e.RunAll(10); err != nil {
		t.Fatal(err)
	}
	want := t0.Add(90 * time.Second)
	if !seen.Equal(want) {
		t.Fatalf("event saw now=%v, want %v", seen, want)
	}
	if !e.Now().Equal(want) {
		t.Fatalf("engine now=%v, want %v", e.Now(), want)
	}
}

func TestEnginePastEventFiresNow(t *testing.T) {
	e := NewEngine(t0)
	e.After(time.Hour, func(time.Time) {})
	if !e.Step() {
		t.Fatal("expected an event")
	}
	var seen time.Time
	e.At(t0, func(now time.Time) { seen = now }) // in the past now
	if !e.Step() {
		t.Fatal("expected past event to fire")
	}
	if seen.Before(t0.Add(time.Hour)) {
		t.Fatalf("past event fired at %v, want clamped to current time", seen)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(t0)
	fired := false
	timer := e.After(time.Second, func(time.Time) { fired = true })
	if !timer.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := e.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine(t0)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour} {
		d := d
		e.After(d, func(time.Time) { fired = append(fired, d) })
	}
	horizon := t0.Add(2 * time.Hour)
	err := e.Run(horizon)
	if !errors.Is(err, ErrHorizonReached) {
		t.Fatalf("Run = %v, want ErrHorizonReached", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if !e.Now().Equal(horizon) {
		t.Fatalf("clock = %v, want horizon %v", e.Now(), horizon)
	}
}

func TestRunEmptyAdvancesToHorizon(t *testing.T) {
	e := NewEngine(t0)
	horizon := t0.Add(24 * time.Hour)
	if err := e.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if !e.Now().Equal(horizon) {
		t.Fatalf("clock = %v, want %v", e.Now(), horizon)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(t0)
	count := 0
	tick, err := e.Every(2*time.Minute, func(time.Time) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(t0.Add(10 * time.Minute)); err != nil && !errors.Is(err, ErrHorizonReached) {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("ticks in 10min at 2min = %d, want 5", count)
	}
	tick.Stop()
	if err := e.Run(t0.Add(20 * time.Minute)); err != nil && !errors.Is(err, ErrHorizonReached) {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("ticker fired after Stop: %d ticks", count)
	}
}

func TestTickerRejectsNonPositiveInterval(t *testing.T) {
	e := NewEngine(t0)
	if _, err := e.Every(0, func(time.Time) {}); err == nil {
		t.Fatal("expected error for zero interval")
	}
	if _, err := e.Every(-time.Second, func(time.Time) {}); err == nil {
		t.Fatal("expected error for negative interval")
	}
}

func TestRunAllGuard(t *testing.T) {
	e := NewEngine(t0)
	var reschedule func(time.Time)
	reschedule = func(time.Time) { e.After(time.Second, reschedule) }
	e.After(time.Second, reschedule)
	if err := e.RunAll(50); err == nil {
		t.Fatal("expected RunAll to abort a self-perpetuating event chain")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(t0)
	var hits int
	e.After(time.Second, func(time.Time) {
		e.After(time.Second, func(time.Time) { hits++ })
	})
	if err := e.RunAll(10); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("nested event did not fire (hits=%d)", hits)
	}
}

func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine(t0)
	a := e.After(time.Second, func(time.Time) {})
	e.After(2*time.Second, func(time.Time) {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	a.Stop()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}
}

func TestVirtualClockMonotonic(t *testing.T) {
	c := NewVirtualClock(t0)
	c.advance(t0.Add(time.Hour))
	c.advance(t0) // backwards: ignored
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("clock moved backwards: %v", c.Now())
	}
}
