// Package figures provides the statistical containers and text renderers
// used to reproduce the paper's tables and figures: sample histograms
// with CDFs (Figure 2), hourly time series (Figures 3, 5, 6, 7), and
// demand-binned statistics (Figures 4, 8, 9).
package figures

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Histogram accumulates float64 samples.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Sum returns the sample total.
func (h *Histogram) Sum() float64 {
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) by
// nearest-rank; 0 when empty.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return h.samples[rank]
}

// Median returns the 50th percentile.
func (h *Histogram) Median() float64 { return h.Percentile(50) }

// CDF returns, for each point, the fraction of samples ≤ that point.
func (h *Histogram) CDF(points []float64) []float64 {
	out := make([]float64, len(points))
	if len(h.samples) == 0 {
		return out
	}
	h.ensureSorted()
	for i, p := range points {
		idx := sort.SearchFloat64s(h.samples, math.Nextafter(p, math.Inf(1)))
		out[i] = float64(idx) / float64(len(h.samples))
	}
	return out
}

// Bins accumulates (x, v) observations into x-ranges, for the paper's
// "vs service demand" figures.
type Bins struct {
	// edges are the upper bounds of each bin except the last, which is
	// open-ended.
	edges  []float64
	sums   []float64
	counts []int64
}

// NewBins creates bins with the given upper edges plus a final open bin.
func NewBins(edges ...float64) *Bins {
	sorted := append([]float64(nil), edges...)
	sort.Float64s(sorted)
	return &Bins{
		edges:  sorted,
		sums:   make([]float64, len(sorted)+1),
		counts: make([]int64, len(sorted)+1),
	}
}

// DemandBins returns the service-demand bins used by Figures 4, 8, 9:
// hourly up to 12 hours, then open-ended.
func DemandBins() *Bins {
	return NewBins(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
}

func (b *Bins) index(x float64) int {
	for i, e := range b.edges {
		if x <= e {
			return i
		}
	}
	return len(b.edges)
}

// Observe adds value v at coordinate x.
func (b *Bins) Observe(x, v float64) {
	i := b.index(x)
	b.sums[i] += v
	b.counts[i]++
}

// Len returns the number of bins.
func (b *Bins) Len() int { return len(b.sums) }

// Mean returns bin i's mean value (0 when empty).
func (b *Bins) Mean(i int) float64 {
	if i < 0 || i >= len(b.sums) || b.counts[i] == 0 {
		return 0
	}
	return b.sums[i] / float64(b.counts[i])
}

// Count returns bin i's observation count.
func (b *Bins) Count(i int) int64 {
	if i < 0 || i >= len(b.counts) {
		return 0
	}
	return b.counts[i]
}

// Label renders bin i's range, e.g. "2-3h" or ">12h".
func (b *Bins) Label(i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("0-%gh", b.edges[0])
	case i < len(b.edges):
		return fmt.Sprintf("%g-%gh", b.edges[i-1], b.edges[i])
	default:
		return fmt.Sprintf(">%gh", b.edges[len(b.edges)-1])
	}
}

// HourlySeries is a fixed-resolution time series over an observation
// window; each bucket averages the observations that land in it.
type HourlySeries struct {
	start  time.Time
	step   time.Duration
	sums   []float64
	counts []int64
}

// NewHourlySeries covers [start, start+n*step).
func NewHourlySeries(start time.Time, n int, step time.Duration) *HourlySeries {
	if step <= 0 {
		step = time.Hour
	}
	return &HourlySeries{
		start:  start,
		step:   step,
		sums:   make([]float64, n),
		counts: make([]int64, n),
	}
}

// Observe records v at time t; out-of-window observations are dropped.
func (s *HourlySeries) Observe(t time.Time, v float64) {
	i := int(t.Sub(s.start) / s.step)
	if i < 0 || i >= len(s.sums) {
		return
	}
	s.sums[i] += v
	s.counts[i]++
}

// Len returns the bucket count.
func (s *HourlySeries) Len() int { return len(s.sums) }

// At returns bucket i's mean (0 when empty).
func (s *HourlySeries) At(i int) float64 {
	if i < 0 || i >= len(s.sums) || s.counts[i] == 0 {
		return 0
	}
	return s.sums[i] / float64(s.counts[i])
}

// Time returns bucket i's start time.
func (s *HourlySeries) Time(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.step)
}

// Values returns all bucket means.
func (s *HourlySeries) Values() []float64 {
	out := make([]float64, len(s.sums))
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Slice returns bucket means for [from, to).
func (s *HourlySeries) Slice(from, to time.Time) []float64 {
	i := int(from.Sub(s.start) / s.step)
	j := int(to.Sub(s.start) / s.step)
	if i < 0 {
		i = 0
	}
	if j > len(s.sums) {
		j = len(s.sums)
	}
	if i >= j {
		return nil
	}
	out := make([]float64, 0, j-i)
	for k := i; k < j; k++ {
		out = append(out, s.At(k))
	}
	return out
}

// Mean returns the mean of non-empty buckets.
func (s *HourlySeries) Mean() float64 {
	sum, n := 0.0, 0
	for i := range s.sums {
		if s.counts[i] > 0 {
			sum += s.At(i)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// --- text rendering ----------------------------------------------------

// Table renders rows as an aligned ASCII table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Chart renders a series as a crude ASCII line chart (one column per
// downsampled point), good enough to eyeball the figures' shapes in a
// terminal.
func Chart(title string, values []float64, width, height int) string {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 12
	}
	ds := Downsample(values, width)
	maxV := 0.0
	for _, v := range ds {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.2f)\n", title, maxV)
	if maxV == 0 {
		b.WriteString("(all zero)\n")
		return b.String()
	}
	for row := height; row >= 1; row-- {
		threshold := maxV * float64(row) / float64(height)
		for _, v := range ds {
			if v >= threshold {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", len(ds)))
	b.WriteByte('\n')
	return b.String()
}

// Downsample reduces values to at most width points by bucket-averaging.
func Downsample(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		return append([]float64(nil), values...)
	}
	out := make([]float64, width)
	per := float64(len(values)) / float64(width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(values) {
			hi = len(values)
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// sparkRamp maps a normalized value to a density character.
const sparkRamp = " .:-=+*#%@"

// Sparkline renders values as a one-line trend (oldest first), scaled to
// their own range and downsampled to at most width characters (width <= 0
// means no downsampling).
func Sparkline(values []float64, width int) string {
	vals := Downsample(values, width)
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRamp)-1))
		}
		b.WriteByte(sparkRamp[i])
	}
	return b.String()
}
