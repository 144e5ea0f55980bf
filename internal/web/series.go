package web

import (
	"sort"
	"sync"
	"time"
)

// In-memory sparkline history. The dashboard's charts (the live
// counterparts of the paper's Figure 5 utilization profile and Figure 9
// leverage plots) are fed from bounded rings sampled on every
// aggregation tick — no external time-series database, no unbounded
// growth, and a restart simply starts a fresh window, the same contract
// the accounting sampler follows.

// Point is one sample of one series.
type Point struct {
	At time.Time `json:"at"`
	V  float64   `json:"v"`
}

// Ring is a fixed-capacity time series. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []Point
	next int
	n    int
}

// NewRing returns a ring keeping the most recent capacity points.
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]Point, capacity)}
}

// Observe appends one sample, evicting the oldest at capacity.
func (r *Ring) Observe(at time.Time, v float64) {
	r.mu.Lock()
	r.buf[r.next] = Point{At: at, V: v}
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained points, oldest first.
func (r *Ring) Snapshot() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// DefaultSeriesCapacity is the per-series ring length: at the default
// 2-second refresh this is 20 minutes of history per chart.
const DefaultSeriesCapacity = 600

// SeriesSet is a named collection of rings sharing one capacity.
type SeriesSet struct {
	mu  sync.Mutex
	m   map[string]*Ring
	cap int
}

// NewSeriesSet creates an empty set whose rings hold capacity points.
func NewSeriesSet(capacity int) *SeriesSet {
	return &SeriesSet{m: make(map[string]*Ring), cap: capacity}
}

// Observe samples one named series, creating its ring on first use.
func (s *SeriesSet) Observe(name string, at time.Time, v float64) {
	s.mu.Lock()
	r, ok := s.m[name]
	if !ok {
		r = NewRing(s.cap)
		s.m[name] = r
	}
	s.mu.Unlock()
	r.Observe(at, v)
}

// Snapshot returns every series, oldest point first.
func (s *SeriesSet) Snapshot() map[string][]Point {
	s.mu.Lock()
	rings := make(map[string]*Ring, len(s.m))
	for name, r := range s.m {
		rings[name] = r
	}
	s.mu.Unlock()
	out := make(map[string][]Point, len(rings))
	for name, r := range rings {
		out[name] = r.Snapshot()
	}
	return out
}

// Names lists the series, sorted.
func (s *SeriesSet) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for name := range s.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
