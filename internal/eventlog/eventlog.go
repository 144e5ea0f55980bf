// Package eventlog provides the bounded, in-memory event history every
// Condor daemon keeps: the submit/place/suspend/vacate/complete trail of
// each job and the grant/preempt/reservation decisions of the
// coordinator. Operators read it with cmd/condor-history; tests use it
// to assert causal sequences without scraping logs.
package eventlog

import (
	"fmt"
	"strings"
	"time"

	"condor/internal/ring"
)

// Kind classifies an event.
type Kind string

// Event kinds. Station-side kinds describe one job's lifecycle;
// coordinator-side kinds describe allocation decisions.
const (
	KindSubmit     Kind = "submit"
	KindPlace      Kind = "place"
	KindSuspend    Kind = "suspend"
	KindResume     Kind = "resume"
	KindVacate     Kind = "vacate"
	KindCheckpoint Kind = "checkpoint"
	KindComplete   Kind = "complete"
	KindFault      Kind = "fault"
	KindLost       Kind = "lost"
	KindRemove     Kind = "remove"

	KindRegister Kind = "register"
	KindGrant    Kind = "grant"
	KindPreempt  Kind = "preempt"
	KindReserve  Kind = "reserve"
	KindDead     Kind = "station-dead"

	// Graded station-health transitions. Detail carries the reason
	// (timeout, slow, byzantine, flap) so operators can tell a slow link
	// from a lying peer; KindDead's detail does the same for removals.
	KindSuspect    Kind = "suspect"
	KindQuarantine Kind = "quarantine"
	KindReadmit    Kind = "readmit"
	// KindDegraded marks the coordinator entering or leaving degraded
	// mode (too much of the pool non-healthy; up-down movement frozen).
	KindDegraded Kind = "degraded"

	// KindDecision summarizes one allocation cycle that did something
	// (grants, preemptions, or starved requesters); the full per-station
	// audit lives in the /decisions ring (internal/decision).
	KindDecision Kind = "decision-cycle"
)

// Event is one log entry.
type Event struct {
	At      time.Time `json:"at"`
	Kind    Kind      `json:"kind"`
	Job     string    `json:"job,omitempty"`
	Station string    `json:"station,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	// TraceID stitches the event to its job's distributed trace (32
	// lowercase hex chars, see internal/trace), so condor-history can
	// pivot from an event trail to the /traces span timeline and back.
	TraceID string `json:"traceID,omitempty"`
}

// String renders the event as one line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %-11s", e.At.Format("15:04:05.000"), e.Kind)
	if e.Job != "" {
		fmt.Fprintf(&b, " job=%s", e.Job)
	}
	if e.Station != "" {
		fmt.Fprintf(&b, " station=%s", e.Station)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	if e.TraceID != "" {
		// The 8-char prefix is enough to eyeball-match against /traces
		// output without drowning the line.
		short := e.TraceID
		if len(short) > 8 {
			short = short[:8]
		}
		fmt.Fprintf(&b, " trace=%s", short)
	}
	return b.String()
}

// Log is a fixed-capacity ring of events. The zero value is unusable;
// call New. Log is safe for concurrent use.
type Log struct {
	events *ring.Ring[Event]
	notify func(Event)
}

// DefaultCapacity is the ring size daemons use.
const DefaultCapacity = 1024

// New returns a log holding the most recent capacity events (≤0 selects
// DefaultCapacity).
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{events: ring.New[Event](capacity)}
}

// SetNotify installs a hook observing every subsequently appended
// event (after its timestamp is stamped). Daemons use it to forward
// their event trail onto the telemetry event bus without eventlog
// importing telemetry. The hook runs outside the log's lock, on the
// appender's goroutine — it must be fast and must never call back into
// the log. Set it before the log is shared; replacing it later races
// with concurrent Appends.
func (l *Log) SetNotify(fn func(Event)) { l.notify = fn }

// Append records an event, stamping it with the current time if unset.
func (l *Log) Append(e Event) {
	if e.At.IsZero() {
		e.At = time.Now()
	}
	l.events.Push(e)
	if l.notify != nil {
		l.notify(e)
	}
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (l *Log) Recent(n int) []Event {
	if n <= 0 {
		return l.events.Snapshot()
	}
	return l.events.Last(n)
}

// Total returns the number of events ever appended (including evicted).
func (l *Log) Total() uint64 { return l.events.Total() }

// Query is the history lookup every daemon serves: the events stitched
// to traceID when it is set, else jobID's trail when that is set, else
// up to limit of the most recent. Oldest first.
func (l *Log) Query(jobID, traceID string, limit int) []Event {
	switch {
	case traceID != "":
		return l.ForTrace(traceID)
	case jobID != "":
		return l.ForJob(jobID)
	}
	return l.Recent(limit)
}

// ForJob returns the retained events for one job, oldest first.
func (l *Log) ForJob(jobID string) []Event {
	var out []Event
	for _, e := range l.Recent(0) {
		if e.Job == jobID {
			out = append(out, e)
		}
	}
	return out
}

// ForTrace returns the retained events stitched to one trace ID, oldest
// first — the event-side view of a /traces timeline.
func (l *Log) ForTrace(traceID string) []Event {
	var out []Event
	if traceID == "" {
		return out
	}
	for _, e := range l.Recent(0) {
		if e.TraceID == traceID {
			out = append(out, e)
		}
	}
	return out
}
