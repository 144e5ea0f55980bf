package accounting

import (
	"sync"
	"time"

	"condor/internal/ring"
)

// DefaultSamplerCapacity is the per-series ring size when NewSampler is
// given a non-positive capacity. At one point per 2-minute poll cycle it
// retains ~8.5 hours — a working day of utilization profile.
const DefaultSamplerCapacity = 256

// Point is one time-series sample.
type Point struct {
	UnixMilli int64   `json:"t"`
	V         float64 `json:"v"`
}

// Sampler retains bounded history for named series, so quantities that
// /metrics can only show instantaneously (station-state counts, up-down
// indexes, the dashboard's aggregates) get a trajectory — the shape of
// the paper's Figure 5 utilization profile. Each series is a fixed ring:
// pushing is O(1) and memory is capacity × series, regardless of uptime.
// Values are pushed by their owner (the coordinator once per poll
// cycle, keeping samples aligned with decisions).
type Sampler struct {
	mu     sync.Mutex
	cap    int
	series map[string]*ring.Ring[Point]
}

// NewSampler returns a sampler whose series each retain the last
// `capacity` points (DefaultSamplerCapacity when <= 0).
func NewSampler(capacity int) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSamplerCapacity
	}
	return &Sampler{cap: capacity, series: make(map[string]*ring.Ring[Point])}
}

// Observe pushes one sample onto the named series, creating it on first
// use.
func (s *Sampler) Observe(name string, t time.Time, v float64) {
	s.mu.Lock()
	r, ok := s.series[name]
	if !ok {
		r = ring.New[Point](s.cap)
		s.series[name] = r
	}
	s.mu.Unlock()
	r.Push(Point{UnixMilli: t.UnixMilli(), V: v})
}

// Last returns the newest n points of one series, oldest first (all of
// them when n < 0; nil when the series is unknown).
func (s *Sampler) Last(name string, n int) []Point {
	s.mu.Lock()
	r, ok := s.series[name]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return r.Last(n)
}

// Histories returns every series, oldest point first.
func (s *Sampler) Histories() map[string][]Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]Point, len(s.series))
	for name, r := range s.series {
		out[name] = r.Snapshot()
	}
	return out
}

// Forget drops one series, so a name observed again starts a fresh
// trajectory.
func (s *Sampler) Forget(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.series, name)
}
