// Package machine models a workstation from the local scheduler's point
// of view: is the owner active, how long has the station been idle, and
// what does its availability history look like.
//
// The paper's local scheduler checks every ½ minute whether the owner
// has resumed using the station (§2.1). What "resumed" means is a
// machine-local detail — keyboard input, load average — so it is
// abstracted behind Monitor. NewLoadMonitor reads the host's load
// average; tests and the in-process pool drive a ScriptedMonitor.
package machine

import (
	"sync"
	"time"
)

// Monitor reports whether the workstation's owner is currently active.
// Implementations must be safe for concurrent use.
type Monitor interface {
	OwnerActive() bool
}

// ScriptedMonitor is a Monitor whose state is set explicitly. The
// in-process cluster and all tests use it to script owner behaviour.
type ScriptedMonitor struct {
	mu     sync.Mutex
	active bool
}

var _ Monitor = (*ScriptedMonitor)(nil)

// NewScriptedMonitor returns a monitor in the given initial state.
func NewScriptedMonitor(active bool) *ScriptedMonitor {
	return &ScriptedMonitor{active: active}
}

// OwnerActive implements Monitor.
func (m *ScriptedMonitor) OwnerActive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// SetActive flips the owner state.
func (m *ScriptedMonitor) SetActive(active bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = active
}

// Tracker accumulates a station's availability history from periodic
// observations: the current idle streak and the historic mean idle
// interval, which feed the §5.1 history-based placement strategy. It is
// the one idle history on both substrates: the live starter's owner scan
// feeds it, and so does the simulator at every owner flip. The caller
// passes the time of each call. The zero Tracker (owner
// active, no history) is ready to use and is safe for concurrent use.
type Tracker struct {
	mu sync.Mutex

	idle      bool
	idleSince time.Time
	// completed idle intervals
	intervals int
	totalIdle time.Duration
}

// Observe records the station's idleness at now. Call it from the local
// scheduler's periodic scan.
func (t *Tracker) Observe(idle bool, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idle == t.idle {
		return
	}
	if t.idle {
		// Idle interval ended.
		t.intervals++
		t.totalIdle += now.Sub(t.idleSince)
	} else {
		t.idleSince = now
	}
	t.idle = idle
}

// IdleStreak returns how long the station has been idle at now (zero if
// the owner is active).
func (t *Tracker) IdleStreak(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.idle {
		return 0
	}
	return now.Sub(t.idleSince)
}

// AvgIdleLen returns the mean length of completed idle intervals (zero
// until one completes).
func (t *Tracker) AvgIdleLen() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.intervals == 0 {
		return 0
	}
	return t.totalIdle / time.Duration(t.intervals)
}

// Intervals returns how many idle intervals have completed.
func (t *Tracker) Intervals() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.intervals
}
