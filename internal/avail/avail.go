// Package avail models workstation owner activity for the month-scale
// simulation: the substitute for the paper's 23 real VAXstation owners.
//
// The model is a per-machine alternating (owner-active / idle) renewal
// process with three properties the paper and its reference [1] ("
// Profiling Workstations' Available Capacity for Remote Execution")
// report:
//
//   - Mean local utilization around 25% over a month, with ≈75% of
//     machine-hours available for remote execution (§3, Figure 5).
//   - A diurnal and weekly shape: activity peaks around 50% on weekday
//     afternoons and falls to ≈20% at night and on weekends (Figure 6).
//   - Per-machine persistence: some machines have long available
//     intervals and tend to stay that way, others churn — "workstations
//     with long available intervals tend to have their next available
//     interval long" (§5.1). This is captured by fixed per-machine
//     classes with very different idle-interval means, plus
//     hyperexponential idle lengths mixing short and very long
//     intervals.
package avail

import (
	"time"

	"condor/internal/sim"
)

// Class is a machine's usage personality.
type Class struct {
	// Name labels the class.
	Name string
	// IdleMean is the mean idle-interval length at factor 1.
	IdleMean time.Duration
	// ActiveMean is the mean owner-active interval length at factor 1.
	ActiveMean time.Duration
	// LongIdleShare is the probability an idle interval is drawn from
	// the "very long" phase of the hyperexponential (3× the mean) rather
	// than the short phase.
	LongIdleShare float64
}

// DefaultClasses returns the three machine personalities used for the
// 23-station reproduction. The mix is calibrated so the pool's mean
// local utilization lands near the paper's 25%.
func DefaultClasses() []Class {
	return []Class{
		{Name: "stable", IdleMean: 7 * time.Hour, ActiveMean: 40 * time.Minute, LongIdleShare: 0.5},
		{Name: "normal", IdleMean: 75 * time.Minute, ActiveMean: 45 * time.Minute, LongIdleShare: 0.35},
		{Name: "busy", IdleMean: 28 * time.Minute, ActiveMean: 45 * time.Minute, LongIdleShare: 0.2},
	}
}

// ClassFor assigns the i-th machine of n to a class, deterministic and
// roughly 30% stable / 45% normal / 25% busy.
func ClassFor(i, n int) Class {
	classes := DefaultClasses()
	if n <= 0 {
		n = 1
	}
	frac := float64(i) / float64(n)
	switch {
	case frac < 0.30:
		return classes[0]
	case frac < 0.75:
		return classes[1]
	default:
		return classes[2]
	}
}

// ActivityFactor returns the relative owner-activity level at t: >1 in
// weekday working hours, <1 at night and on weekends. It multiplies the
// hazard of becoming active and divides the length of idle intervals.
func ActivityFactor(t time.Time) float64 {
	hour := t.Hour()
	weekday := t.Weekday()
	weekend := weekday == time.Saturday || weekday == time.Sunday
	var base float64
	switch {
	case hour >= 9 && hour < 12:
		base = 2.5
	case hour >= 12 && hour < 14:
		base = 2.1
	case hour >= 14 && hour < 18:
		base = 2.75
	case hour >= 18 && hour < 23:
		base = 1.0
	default: // 23:00–09:00
		base = 0.38
	}
	if weekend {
		base *= 0.35
	}
	return base
}

// Machine generates one workstation's owner-activity intervals.
type Machine struct {
	// Name is the workstation name.
	Name string
	// Class is its personality.
	Class Class

	rng *sim.RNG
}

// NewMachine creates a machine with its own random stream.
func NewMachine(name string, class Class, rng *sim.RNG) *Machine {
	return &Machine{Name: name, Class: class, rng: rng}
}

// activeFrac returns the class's target active fraction at time t: the
// base fraction implied by the class means, scaled by the diurnal factor
// and clamped to [6%, 90%].
func (m *Machine) activeFrac(t time.Time) float64 {
	base := float64(m.Class.ActiveMean) / float64(m.Class.ActiveMean+m.Class.IdleMean)
	p := base * ActivityFactor(t)
	if p < 0.06 {
		p = 0.06
	}
	if p > 0.90 {
		p = 0.90
	}
	return p
}

// NextIdle draws the length of an idle interval starting at now. The
// mean is chosen so the process's long-run active fraction tracks
// activeFrac(now); the hyperexponential mixes short intervals with very
// long ones (3× the mean), matching ref [1]'s observation that available
// intervals are often very long.
func (m *Machine) NextIdle(now time.Time) time.Duration {
	p := m.activeFrac(now)
	mean := float64(m.Class.ActiveMean) * (1 - p) / p
	// Mixture with overall mean preserved: short phase 0.4×, long phase
	// weighted to compensate.
	share := m.Class.LongIdleShare
	short := mean * 0.4
	long := mean
	if share > 0 {
		long = (mean - (1-share)*short) / share
	}
	d := m.rng.HyperExp(1-share,
		short/float64(time.Hour), long/float64(time.Hour))
	return clampInterval(time.Duration(d * float64(time.Hour)))
}

// NextActive draws the length of an owner-active interval starting now.
func (m *Machine) NextActive(now time.Time) time.Duration {
	d := m.rng.Exp(float64(m.Class.ActiveMean) / float64(time.Hour))
	return clampInterval(time.Duration(d * float64(time.Hour)))
}

// clampInterval keeps intervals in a sane range: at least one minute (the
// paper's monitors cannot resolve less) and at most two days.
func clampInterval(d time.Duration) time.Duration {
	const (
		lo = time.Minute
		hi = 48 * time.Hour
	)
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Trace is a precomputed activity schedule for one machine: the times at
// which the owner state flips, starting from idle at start.
type Trace struct {
	Name string
	// Flips are the instants the owner state toggles. State before
	// Flips[0] is idle; it alternates from there.
	Flips []time.Time
}

// GenerateTrace rolls the process forward from start to end.
func (m *Machine) GenerateTrace(start, end time.Time) Trace {
	tr := Trace{Name: m.Name}
	now := start
	idle := true
	for now.Before(end) {
		var d time.Duration
		if idle {
			d = m.NextIdle(now)
		} else {
			d = m.NextActive(now)
		}
		now = now.Add(d)
		if now.Before(end) {
			tr.Flips = append(tr.Flips, now)
		}
		idle = !idle
	}
	return tr
}

// ActiveAt reports the owner state at t (false = idle).
func (tr Trace) ActiveAt(t time.Time) bool {
	active := false
	for _, flip := range tr.Flips {
		if flip.After(t) {
			break
		}
		active = !active
	}
	return active
}

// ActiveFraction integrates the trace's active share over [start, end).
func (tr Trace) ActiveFraction(start, end time.Time) float64 {
	if !end.After(start) {
		return 0
	}
	total := end.Sub(start)
	var active time.Duration
	cur := start
	on := false
	for _, flip := range tr.Flips {
		if !flip.After(start) {
			on = !on
			continue
		}
		if flip.After(end) {
			break
		}
		if on {
			active += flip.Sub(cur)
		}
		cur = flip
		on = !on
	}
	if on {
		active += end.Sub(cur)
	}
	return float64(active) / float64(total)
}
