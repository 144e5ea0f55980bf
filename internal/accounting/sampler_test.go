package accounting

import (
	"testing"
	"time"
)

func TestSamplerRingBounded(t *testing.T) {
	s := NewSampler(4)
	base := time.UnixMilli(1_000_000)
	for i := 0; i < 10; i++ {
		s.Observe("x", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	h := s.Last("x", -1)
	if len(h) != 4 {
		t.Fatalf("history len = %d, want capacity 4", len(h))
	}
	// Oldest-first, last 4 pushes survive.
	for i, p := range h {
		if want := float64(6 + i); p.V != want {
			t.Errorf("h[%d].V = %v, want %v", i, p.V, want)
		}
	}
	if h[0].UnixMilli >= h[3].UnixMilli {
		t.Errorf("history not time-ordered: %v", h)
	}
}

func TestSamplerPartialRing(t *testing.T) {
	s := NewSampler(8)
	s.Observe("y", time.UnixMilli(1), 1)
	s.Observe("y", time.UnixMilli(2), 2)
	if h := s.Last("y", -1); len(h) != 2 || h[0].V != 1 || h[1].V != 2 {
		t.Errorf("partial history = %v", h)
	}
	if h := s.Last("y", 1); len(h) != 1 || h[0].V != 2 {
		t.Errorf("newest point = %v", h)
	}
	s.Forget("y")
	if h := s.Last("y", -1); h != nil {
		t.Errorf("forgotten series = %v, want nil", h)
	}
	if h := s.Last("unknown", -1); h != nil {
		t.Errorf("unknown series = %v, want nil", h)
	}
}
