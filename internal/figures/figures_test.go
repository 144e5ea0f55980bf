package figures

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Median() != 0 || h.N() != 0 {
		t.Fatal("empty histogram must be all zero")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Add(v)
	}
	if h.N() != 5 || h.Mean() != 3 || h.Sum() != 15 {
		t.Fatalf("N=%d mean=%v sum=%v", h.N(), h.Mean(), h.Sum())
	}
	if h.Median() != 3 {
		t.Fatalf("median = %v", h.Median())
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 5 {
		t.Fatal("extreme percentiles wrong")
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Add(float64(i))
	}
	cdf := h.CDF([]float64{0, 1, 5, 10, 20})
	want := []float64{0, 0.1, 0.5, 1, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-9 {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	var empty Histogram
	for _, v := range empty.CDF([]float64{1, 2}) {
		if v != 0 {
			t.Fatal("empty CDF must be zero")
		}
	}
}

func TestHistogramCDFMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Add(v)
			}
		}
		points := []float64{-100, -1, 0, 1, 100}
		cdf := h.CDF(points)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBins(t *testing.T) {
	b := NewBins(1, 2, 4)
	b.Observe(0.5, 10)
	b.Observe(1.5, 20)
	b.Observe(1.7, 40)
	b.Observe(3.0, 7)
	b.Observe(100, 9)
	if b.Len() != 4 {
		t.Fatalf("len = %d", b.Len())
	}
	if b.Mean(0) != 10 || b.Mean(1) != 30 || b.Mean(2) != 7 || b.Mean(3) != 9 {
		t.Fatalf("means = %v %v %v %v", b.Mean(0), b.Mean(1), b.Mean(2), b.Mean(3))
	}
	if b.Count(1) != 2 {
		t.Fatalf("count(1) = %d", b.Count(1))
	}
	if b.Mean(99) != 0 || b.Count(-1) != 0 {
		t.Fatal("out-of-range access must be zero")
	}
	if b.Label(0) != "0-1h" || b.Label(2) != "2-4h" || b.Label(3) != ">4h" {
		t.Fatalf("labels = %q %q %q", b.Label(0), b.Label(2), b.Label(3))
	}
}

func TestBinEdgeInclusive(t *testing.T) {
	b := NewBins(1, 2)
	b.Observe(1.0, 5) // exactly on edge: first bin
	if b.Count(0) != 1 || b.Count(1) != 0 {
		t.Fatalf("edge observation landed in wrong bin: %d/%d", b.Count(0), b.Count(1))
	}
}

func TestDemandBinsCoverTwelveHours(t *testing.T) {
	b := DemandBins()
	if b.Len() != 13 {
		t.Fatalf("len = %d, want 13", b.Len())
	}
	b.Observe(11.5, 1)
	b.Observe(20, 1)
	if b.Count(11) != 1 || b.Count(12) != 1 {
		t.Fatal("demand bins misroute")
	}
}

func TestHourlySeries(t *testing.T) {
	start := time.Date(1987, 11, 2, 0, 0, 0, 0, time.UTC)
	s := NewHourlySeries(start, 24, time.Hour)
	s.Observe(start.Add(30*time.Minute), 10)
	s.Observe(start.Add(45*time.Minute), 20)
	s.Observe(start.Add(5*time.Hour), 7)
	s.Observe(start.Add(-time.Hour), 999)  // before window: dropped
	s.Observe(start.Add(25*time.Hour), 99) // after window: dropped
	if s.At(0) != 15 {
		t.Fatalf("bucket 0 = %v, want mean 15", s.At(0))
	}
	if s.At(5) != 7 {
		t.Fatalf("bucket 5 = %v", s.At(5))
	}
	if s.At(1) != 0 {
		t.Fatal("empty bucket must be 0")
	}
	if !s.Time(5).Equal(start.Add(5 * time.Hour)) {
		t.Fatal("Time broken")
	}
	if len(s.Values()) != 24 {
		t.Fatal("Values length wrong")
	}
	if got := s.Mean(); math.Abs(got-11) > 1e-9 { // (15+7)/2
		t.Fatalf("mean of non-empty buckets = %v, want 11", got)
	}
}

func TestHourlySeriesSlice(t *testing.T) {
	start := time.Date(1987, 11, 2, 0, 0, 0, 0, time.UTC)
	s := NewHourlySeries(start, 48, time.Hour)
	for i := 0; i < 48; i++ {
		s.Observe(start.Add(time.Duration(i)*time.Hour), float64(i))
	}
	got := s.Slice(start.Add(10*time.Hour), start.Add(13*time.Hour))
	if len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("slice = %v", got)
	}
	if s.Slice(start.Add(40*time.Hour), start.Add(100*time.Hour)) == nil {
		t.Fatal("clamped slice should not be nil")
	}
	if s.Slice(start.Add(5*time.Hour), start.Add(5*time.Hour)) != nil {
		t.Fatal("empty slice should be nil")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"User", "Jobs"}, [][]string{{"A", "690"}, {"B", "138"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "User") || !strings.Contains(lines[0], "Jobs") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "690") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestChartRendering(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i % 10)
	}
	out := Chart("queue length", values, 40, 8)
	if !strings.Contains(out, "queue length") || !strings.Contains(out, "#") {
		t.Fatalf("chart output:\n%s", out)
	}
	flat := Chart("empty", []float64{0, 0, 0}, 10, 4)
	if !strings.Contains(flat, "all zero") {
		t.Fatalf("zero chart:\n%s", flat)
	}
}

func TestDownsample(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ds := Downsample(values, 4)
	if len(ds) != 4 {
		t.Fatalf("len = %d", len(ds))
	}
	if ds[0] != 1.5 || ds[3] != 7.5 {
		t.Fatalf("ds = %v", ds)
	}
	same := Downsample(values, 100)
	if len(same) != len(values) {
		t.Fatal("short input must pass through")
	}
	same[0] = 99
	if values[0] == 99 {
		t.Fatal("downsample must copy, not alias")
	}
}
