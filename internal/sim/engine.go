package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Event is a callback scheduled to fire at a specific virtual time.
type Event func(now time.Time)

// ErrHorizonReached is returned by Run when the simulation stops because
// the configured horizon was hit while events were still pending.
var ErrHorizonReached = errors.New("sim: horizon reached with events pending")

type scheduledEvent struct {
	at    time.Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	fire  Event
	index int // heap index; -1 once popped or cancelled
	dead  bool
}

type eventHeap []*scheduledEvent

// Len implements heap.Interface.
func (h eventHeap) Len() int { return len(h) }

// Less implements heap.Interface: earlier time first, FIFO on ties.
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}

// Swap implements heap.Interface.
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// Push implements heap.Interface.
func (h *eventHeap) Push(x any) {
	ev, ok := x.(*scheduledEvent)
	if !ok {
		return
	}
	ev.index = len(*h)
	*h = append(*h, ev)
}

// Pop implements heap.Interface.
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	ev *scheduledEvent
}

// Stop cancels the timer. It reports whether the event had not yet fired.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// Engine is a single-threaded discrete-event simulation loop.
type Engine struct {
	clock  *VirtualClock
	events eventHeap
	nextID uint64
	fired  uint64
}

// NewEngine returns an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{clock: NewVirtualClock(start)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Pending returns the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// At schedules fn to run at the absolute time t. Scheduling in the past
// fires the event at the current time (events never run retroactively).
func (e *Engine) At(t time.Time, fn Event) *Timer {
	if t.Before(e.clock.Now()) {
		t = e.clock.Now()
	}
	ev := &scheduledEvent{at: t, seq: e.nextID, fire: fn}
	e.nextID++
	heap.Push(&e.events, ev)
	return &Timer{ev: ev}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn Event) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.clock.Now().Add(d), fn)
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned Ticker is stopped.
func (e *Engine) Every(interval time.Duration, fn Event) (*Ticker, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sim: non-positive ticker interval %v", interval)
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.arm()
	return t, nil
}

// Ticker re-schedules an event at a fixed virtual interval.
type Ticker struct {
	engine   *Engine
	interval time.Duration
	fn       Event
	timer    *Timer
	stopped  bool
}

func (t *Ticker) arm() {
	t.timer = t.engine.After(t.interval, func(now time.Time) {
		if t.stopped {
			return
		}
		t.fn(now)
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		top, ok := heap.Pop(&e.events).(*scheduledEvent)
		if !ok {
			return false
		}
		if top.dead {
			continue
		}
		e.clock.advance(top.at)
		e.fired++
		top.fire(e.clock.Now())
		return true
	}
	return false
}

// Run executes events until either no events remain or the clock would
// pass horizon. Events scheduled exactly at the horizon still run. It
// returns ErrHorizonReached if it stopped with events pending.
func (e *Engine) Run(horizon time.Time) error {
	for len(e.events) > 0 {
		// Peek: skip over dead events at the top.
		top := e.events[0]
		if top.dead {
			heap.Pop(&e.events)
			continue
		}
		if top.at.After(horizon) {
			e.clock.advance(horizon)
			return ErrHorizonReached
		}
		e.Step()
	}
	e.clock.advance(horizon)
	return nil
}

// RunAll executes events until none remain. Useful in tests with finite
// event sets; a self-rescheduling ticker makes this loop forever, so the
// maxEvents guard aborts with an error in that case.
func (e *Engine) RunAll(maxEvents uint64) error {
	start := e.fired
	for e.Step() {
		if e.fired-start > maxEvents {
			return fmt.Errorf("sim: RunAll exceeded %d events", maxEvents)
		}
	}
	return nil
}
