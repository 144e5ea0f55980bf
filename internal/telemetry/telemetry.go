// Package telemetry is the process-wide operational metrics layer: the
// live counterpart of the paper's §3 measurements. Where internal/metrics
// holds the *offline* statistical containers that reproduce the paper's
// tables, this package holds the *online* registry every daemon reports
// into at runtime — RPC round-trip latency, coordinator cycle duration,
// shadow syscall cost — exposed in Prometheus text format over HTTP.
//
// Design constraints, in priority order:
//
//  1. The observation path is lock-free and allocation-free. A Counter or
//     Gauge is one atomic add; a Histogram.Observe is a binary search over
//     fixed bucket bounds plus two atomic adds and a CAS-loop float add.
//     No map lookup happens per observation: callers intern a metric once
//     (package-level var or Vec.With at setup time) and hold the pointer.
//  2. Registration is idempotent and panics only on programmer error
//     (same name registered as two different kinds).
//  3. Exposition takes a point-in-time snapshot without stopping writers;
//     per-series values are atomically read but the page as a whole is
//     not a consistent cut — the standard Prometheus contract.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning the shadow-syscall microsecond regime (§3: 0.4–40 ms per
// remote syscall) up to multi-second poll cycles and checkpoint
// transfers.
var DefBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30, 60,
}

// kind is a metric family's type.
type kind int

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one exported time series inside a family.
type series interface {
	// labels returns the rendered label set ("" or `{k="v"}`).
	labelString() string
	// write appends the series' sample lines for family name.
	write(b *strings.Builder, name string)
}

// family groups every series sharing one metric name.
type family struct {
	name string
	help string
	kind kind

	mu     sync.Mutex
	series []series
	byLbl  map[string]series
}

// add registers s under its label set, returning the existing series if
// one is already interned there (idempotent registration).
func (f *family) add(s series) series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.byLbl[s.labelString()]; ok {
		return prev
	}
	f.byLbl[s.labelString()] = s
	f.series = append(f.series, s)
	return s
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry. Most code uses the package-level Default.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Default is the process-wide registry every package-level constructor
// registers into; the daemons' -http endpoint serves it.
var Default = NewRegistry()

// family returns (creating if needed) the family for name, enforcing
// kind consistency.
func (r *Registry) family(name, help string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("telemetry: %s registered as %s, redeclared as %s", name, f.kind, k))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, byLbl: make(map[string]series)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// --- counter -----------------------------------------------------------

// Counter is a monotonically increasing uint64. All methods are
// lock-free and safe for concurrent use.
type Counter struct {
	lbl string
	v   atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) labelString() string { return c.lbl }

func (c *Counter) write(b *strings.Builder, name string) {
	b.WriteString(name)
	b.WriteString(c.lbl)
	fmt.Fprintf(b, " %d\n", c.v.Load())
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter)
	return f.add(&Counter{}).(*Counter)
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// CounterVec mints label-valued counters within one family. With interns
// on first use; callers should hold the returned pointer for hot paths.
type CounterVec struct {
	fam   *family
	label string
}

// CounterVec registers a counter family labeled by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, kindCounter), label: label}
}

// NewCounterVec registers a labeled counter family on Default.
func NewCounterVec(name, help, label string) *CounterVec {
	return Default.CounterVec(name, help, label)
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	return v.fam.add(&Counter{lbl: renderLabel(v.label, value)}).(*Counter)
}

// --- gauge -------------------------------------------------------------

// Gauge is an int64 that can go up and down.
type Gauge struct {
	lbl string
	v   atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) labelString() string { return g.lbl }

func (g *Gauge) write(b *strings.Builder, name string) {
	b.WriteString(name)
	b.WriteString(g.lbl)
	fmt.Fprintf(b, " %d\n", g.v.Load())
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge)
	return f.add(&Gauge{}).(*Gauge)
}

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// GaugeVec mints label-valued gauges within one family.
type GaugeVec struct {
	fam   *family
	label string
}

// GaugeVec registers a gauge family labeled by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, kindGauge), label: label}
}

// NewGaugeVec registers a labeled gauge family on Default.
func NewGaugeVec(name, help, label string) *GaugeVec {
	return Default.GaugeVec(name, help, label)
}

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	return v.fam.add(&Gauge{lbl: renderLabel(v.label, value)}).(*Gauge)
}

// gaugeFunc samples a float at exposition time (for values cheaper to
// compute on demand than to maintain, e.g. goroutine counts).
type gaugeFunc struct {
	lbl string
	f   func() float64
}

func (g *gaugeFunc) labelString() string { return g.lbl }

func (g *gaugeFunc) write(b *strings.Builder, name string) {
	b.WriteString(name)
	b.WriteString(g.lbl)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.f()))
	b.WriteByte('\n')
}

// GaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.family(name, help, kindGauge).add(&gaugeFunc{f: f})
}

// --- histogram ---------------------------------------------------------

// Histogram accumulates observations into fixed buckets. Observe is
// lock-free: a binary search over the immutable bounds, two atomic adds,
// and a CAS loop for the float sum. It never allocates.
type Histogram struct {
	lbl    string
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
	ex     atomic.Pointer[exemplar]
}

// exemplar pins one concrete observation (typically the latest traced
// one) to a histogram so an operator can jump from an aggregate latency
// series to the span that produced it.
type exemplar struct {
	ref string // opaque reference, e.g. "trace=<id> span=<id>"
	v   float64
	at  time.Time
}

func newHistogram(lbl string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		lbl:    lbl,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// sort.SearchFloat64s(h.bounds, v) finds the first bound >= v except
	// that equal values must land in their own bucket (le is inclusive);
	// Search returns the insertion point for v, which for v == bound is
	// the bound's own index. That is exactly the Prometheus contract.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records v and, when ref is non-empty, stores it as the
// series' current exemplar. The exemplar store is a single atomic pointer
// swap: last writer wins, no history is kept.
func (h *Histogram) ObserveExemplar(v float64, ref string) {
	h.Observe(v)
	if ref != "" {
		h.ex.Store(&exemplar{ref: ref, v: v, at: time.Now()})
	}
}

// ObserveDurationExemplar records d in seconds with an exemplar ref.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, ref string) {
	h.ObserveExemplar(d.Seconds(), ref)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) labelString() string { return h.lbl }

func (h *Histogram) write(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(name)
		b.WriteString("_bucket")
		b.WriteString(mergeLabels(h.lbl, `le="`+formatFloat(bound)+`"`))
		fmt.Fprintf(b, " %d\n", cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(name)
	b.WriteString("_bucket")
	b.WriteString(mergeLabels(h.lbl, `le="+Inf"`))
	fmt.Fprintf(b, " %d\n", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(h.lbl)
	b.WriteByte(' ')
	b.WriteString(formatFloat(h.Sum()))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(h.lbl)
	fmt.Fprintf(b, " %d\n", h.count.Load())
	// Exemplar as a comment line: plain-text Prometheus parsers skip
	// comments, while humans and our own tooling can jump from the
	// aggregate to one concrete traced observation.
	if e := h.ex.Load(); e != nil {
		fmt.Fprintf(b, "# exemplar %s%s %s %s\n", name, h.lbl, e.ref, formatFloat(e.v))
	}
}

// Histogram registers (or returns the existing) unlabeled histogram with
// the given bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.family(name, help, kindHistogram)
	return f.add(newHistogram("", bounds)).(*Histogram)
}

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// HistogramVec mints label-valued histograms within one family.
type HistogramVec struct {
	fam    *family
	label  string
	bounds []float64
}

// HistogramVec registers a histogram family labeled by label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{fam: r.family(name, help, kindHistogram), label: label, bounds: bounds}
}

// NewHistogramVec registers a labeled histogram family on Default.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return Default.HistogramVec(name, help, label, bounds)
}

// With returns the histogram for one label value, creating it on first
// use. Intern the result at setup time; With itself takes the family
// lock.
func (v *HistogramVec) With(value string) *Histogram {
	return v.fam.add(newHistogram(renderLabel(v.label, value), v.bounds)).(*Histogram)
}

// --- rendering helpers -------------------------------------------------

// renderLabel renders one label pair as `{name="value"}` with the value
// escaped per the Prometheus text format.
func renderLabel(name, value string) string {
	if name == "" {
		return ""
	}
	return "{" + name + `="` + escapeLabel(value) + `"}`
}

// mergeLabels merges a series' rendered label set with one extra pair
// (used for histogram le labels).
func mergeLabels(lbl, extra string) string {
	if lbl == "" {
		return "{" + extra + "}"
	}
	return lbl[:len(lbl)-1] + "," + extra + "}"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// helpEscaper covers the HELP-line escapes the exposition format
// defines: backslash and newline (quotes are legal in HELP text).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
	}
}

// WriteText renders the registry in Prometheus text exposition format.
func (r *Registry) WriteText(b *strings.Builder) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		ss := append([]series(nil), f.series...)
		f.mu.Unlock()
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			s.write(b, f.name)
		}
	}
}

// Text returns the full exposition page.
func (r *Registry) Text() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
