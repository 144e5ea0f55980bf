// Package trace is the pool's distributed-tracing layer: the causal
// counterpart of internal/telemetry's aggregates. Where /metrics answers
// "how long do remote syscalls take on average", a trace answers the
// ConGUSTo question — "where did *this* job spend its time" — as one
// ordered tree of spans spanning the submit, the coordinator's grant,
// the schedd's placement, the starter's execution slices, the shadow's
// per-syscall round trips, and every checkpoint/vacate/resume hop in
// between, across processes and machines.
//
// Design constraints, in priority order:
//
//  1. The sampled-out fast path is allocation-free and lock-free. A span
//     that head-based sampling rejects costs one branch; ActiveSpan is a
//     value type so the not-recording case never escapes to the heap.
//  2. Identifiers are W3C trace-context compatible: 16-byte trace IDs,
//     8-byte span IDs, carried on the wire as a standard `traceparent`
//     string ("00-<32 hex>-<16 hex>-<2 hex flags>") in the wire
//     envelope's Trace field, empty when the caller is not traced.
//  3. Recording is a lock-free bounded ring of atomic pointers. Writers
//     never block or allocate beyond the one span copy; under overflow
//     the oldest spans are overwritten and counted, never the newest.
//
// Sampling policy: rare, high-value events (submit, grant, place,
// preempt, vacate, checkpoint, fault, complete) are always sampled; only
// the per-slice guest syscall firehose is downsampled (first syscall of
// every execution always, then every Nth — see ru.StarterConfig).
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync/atomic"
	"time"

	"condor/internal/telemetry"
)

// TraceID is a W3C-compatible 16-byte trace identifier.
type TraceID [16]byte

// SpanID is a W3C-compatible 8-byte span identifier.
type SpanID [8]byte

// IsValid reports whether the ID is non-zero (the all-zero ID is the
// W3C "absent" sentinel).
func (t TraceID) IsValid() bool { return t != TraceID{} }

// IsValid reports whether the ID is non-zero.
func (s SpanID) IsValid() bool { return s != SpanID{} }

// String renders the ID as lowercase hex.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// String renders the ID as lowercase hex.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// newTraceID returns a fresh random non-zero trace ID. math/rand/v2's
// global generator is lock-free and per-P chacha8, so ID minting never
// contends.
func newTraceID() TraceID {
	var t TraceID
	for !t.IsValid() {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(hi >> (8 * (7 - i)))
			t[8+i] = byte(lo >> (8 * (7 - i)))
		}
	}
	return t
}

// NewSpanID mints a fresh random span ID, for callers that assemble
// Span values by hand (explicit Record of a span whose timing is only
// known after the fact, e.g. the coordinator's grant span).
func NewSpanID() SpanID { return newSpanID() }

// newSpanID returns a fresh random non-zero span ID.
func newSpanID() SpanID {
	var s SpanID
	for !s.IsValid() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * (7 - i)))
		}
	}
	return s
}

// SpanContext is the propagated identity of a span: what crosses process
// boundaries inside wire.Envelope.Trace. The zero value is "no trace".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID.IsValid() && sc.SpanID.IsValid() }

// traceparentLen is the exact length of a version-00 W3C traceparent:
// "00-" + 32 hex + "-" + 16 hex + "-" + 2 hex flags.
const traceparentLen = 55

// Traceparent renders the context as a W3C traceparent string, or ""
// for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	var b [traceparentLen]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.SpanID[:])
	b[52], b[53] = '-', '0'
	if sc.Sampled {
		b[54] = '1'
	} else {
		b[54] = '0'
	}
	return string(b[:])
}

// ParseTraceparent parses a version-00 traceparent. It is strict — any
// malformed, truncated, wrong-version, or all-zero-ID input returns
// ok=false rather than a partial context, so hostile wire input can
// never smuggle a half-valid identity into the recorder.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	if len(s) != traceparentLen {
		return SpanContext{}, false
	}
	if s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	switch s[53:] {
	case "00":
		sc.Sampled = false
	case "01":
		sc.Sampled = true
	default:
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Resume rebuilds a sampled context from a bare 32-hex trace ID (as
// persisted in ckpt.Meta.TraceID) with a fresh span ID. This is how a
// job's trace identity survives checkpoint files, schedd restarts, and
// migration to stations that never saw the original envelope.
func Resume(traceIDHex string) (SpanContext, bool) {
	var t TraceID
	if len(traceIDHex) != 32 {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(t[:], []byte(traceIDHex)); err != nil || !t.IsValid() {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: t, SpanID: newSpanID(), Sampled: true}, true
}

// --- context plumbing --------------------------------------------------

type ctxKey struct{}

// ContextWith returns ctx carrying sc. An invalid sc returns ctx
// unchanged, so callers can chain without branching.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context from ctx (zero if absent).
func FromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// --- spans -------------------------------------------------------------

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one finished operation in a trace. Spans are immutable once
// recorded; the recorder stores pointers to private copies.
type Span struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID // zero for root spans
	Name    string // operation, e.g. "submit", "grant", "syscall"
	Job     string // job ID when the span belongs to one
	Station string // station/host that produced the span
	Start   time.Time
	End     time.Time
	Err     string
	Attrs   []Attr
}

// Duration is the span's wall-clock extent.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

var (
	mSpansRecorded = telemetry.NewCounter("condor_trace_spans_recorded_total",
		"Spans finished and written into the in-process ring buffer.")
	mSpansDropped = telemetry.NewCounter("condor_trace_spans_dropped_total",
		"Old spans overwritten by ring-buffer wraparound before being scraped.")
)

// Recorder is a lock-free bounded ring of finished spans. Writers claim
// a slot with one atomic add and publish with one pointer swap; readers
// snapshot without blocking writers. When the ring wraps, the oldest
// span is overwritten and counted as dropped.
type Recorder struct {
	slots   []atomic.Pointer[Span]
	next    atomic.Uint64
	dropped atomic.Uint64
}

// DefaultCapacity is the span capacity of the package-level Default
// recorder: enough for thousands of complete job traces between scrapes
// at a few hundred bytes per span.
const DefaultCapacity = 4096

// Default is the process-wide recorder; the /traces endpoint serves it.
var Default = NewRecorder(DefaultCapacity)

// NewRecorder creates a recorder holding up to capacity spans.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{slots: make([]atomic.Pointer[Span], capacity)}
}

// record publishes a finished span copy into the ring.
func (r *Recorder) record(sp *Span) {
	i := r.next.Add(1) - 1
	if prev := r.slots[i%uint64(len(r.slots))].Swap(sp); prev != nil {
		r.dropped.Add(1)
		mSpansDropped.Inc()
	}
	mSpansRecorded.Inc()
}

// Record stores an explicit after-the-fact span (used where the caller
// measures the operation itself, e.g. the coordinator's grant loop).
// Invalid spans (zero trace or span ID) are ignored.
func (r *Recorder) Record(sp Span) {
	if !sp.TraceID.IsValid() || !sp.SpanID.IsValid() {
		return
	}
	c := sp
	r.record(&c)
}

// Record stores sp in the Default recorder.
func Record(sp Span) { Default.Record(sp) }

// Total returns how many spans have ever been recorded.
func (r *Recorder) Total() uint64 { return r.next.Load() }

// Dropped returns how many spans were overwritten before being read.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Snapshot copies the currently retained spans, oldest first by start
// time. It is a point-in-time read: concurrent writers may replace slots
// mid-scan, which yields a mix of old and new spans but never a torn
// span (slots hold immutable copies behind atomic pointers).
func (r *Recorder) Snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		if sp := r.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// --- active spans ------------------------------------------------------

// ActiveSpan is an in-flight span. It is a value type: the sampled-out
// case is the zero value, which makes every method a no-op and — because
// the value never escapes — costs zero heap allocations. Finish copies
// the span into the recorder; an ActiveSpan must not be used after
// Finish.
type ActiveSpan struct {
	rec  *Recorder
	span Span
}

// Recording reports whether this span was sampled in.
func (a *ActiveSpan) Recording() bool { return a.rec != nil }

// Context returns the span's propagable identity (zero if sampled out).
func (a *ActiveSpan) Context() SpanContext {
	if a.rec == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.span.TraceID, SpanID: a.span.SpanID, Sampled: true}
}

// SetJob annotates the span with a job ID.
func (a *ActiveSpan) SetJob(job string) {
	if a.rec != nil {
		a.span.Job = job
	}
}

// SetStation annotates the span with the producing station.
func (a *ActiveSpan) SetStation(station string) {
	if a.rec != nil {
		a.span.Station = station
	}
}

// SetAttr appends one key/value annotation.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a.rec != nil {
		a.span.Attrs = append(a.span.Attrs, Attr{Key: k, Value: v})
	}
}

// SetError records err's message on the span (nil is a no-op).
func (a *ActiveSpan) SetError(err error) {
	if a.rec != nil && err != nil {
		a.span.Err = err.Error()
	}
}

// Finish stamps the end time and publishes the span. Safe to call on a
// sampled-out (zero) ActiveSpan and idempotent thereafter.
func (a *ActiveSpan) Finish() {
	if a.rec == nil {
		return
	}
	a.span.End = time.Now()
	sp := a.span
	a.rec.record(&sp)
	a.rec = nil
}

// StartRoot begins a new always-sampled trace rooted at name.
func (r *Recorder) StartRoot(name string) ActiveSpan {
	return ActiveSpan{rec: r, span: Span{
		TraceID: newTraceID(),
		SpanID:  newSpanID(),
		Name:    name,
		Start:   time.Now(),
	}}
}

// StartRoot begins a new trace in the Default recorder.
func StartRoot(name string) ActiveSpan { return Default.StartRoot(name) }

// StartChild begins a span under parent. A sampled-out parent yields a
// sampled-out child; an invalid parent starts a fresh root trace, so
// instrumentation keeps working when upstream context was lost (e.g. a
// peer predating trace propagation).
func (r *Recorder) StartChild(parent SpanContext, name string) ActiveSpan {
	if !parent.Valid() {
		return r.StartRoot(name)
	}
	if !parent.Sampled {
		return ActiveSpan{}
	}
	return ActiveSpan{rec: r, span: Span{
		TraceID: parent.TraceID,
		SpanID:  newSpanID(),
		Parent:  parent.SpanID,
		Name:    name,
		Start:   time.Now(),
	}}
}

// StartChild begins a child span in the Default recorder.
func StartChild(parent SpanContext, name string) ActiveSpan {
	return Default.StartChild(parent, name)
}

// StartChildIfSampled begins a child span only when parent is valid and
// sampled; otherwise it returns a no-op span. Use on receive paths where
// an absent upstream context means "this operation is not traced", not
// "start a fresh trace" — e.g. the shadow serving an unsampled syscall.
func (r *Recorder) StartChildIfSampled(parent SpanContext, name string) ActiveSpan {
	if !parent.Valid() || !parent.Sampled {
		return ActiveSpan{}
	}
	return r.StartChild(parent, name)
}

// StartChildIfSampled begins a conditional child in the Default recorder.
func StartChildIfSampled(parent SpanContext, name string) ActiveSpan {
	return Default.StartChildIfSampled(parent, name)
}

// StartNth is the head-sampled hot-path entry: it records occurrence n
// (1-based) only when the parent is sampled AND (n == 1 || n%every == 0).
// The first occurrence is always kept so every execution contributes at
// least one syscall span; the rest are downsampled. The rejected path is
// a branch and a return — no clock read, no allocation.
func (r *Recorder) StartNth(parent SpanContext, name string, n, every uint64) ActiveSpan {
	if !parent.Valid() || !parent.Sampled {
		return ActiveSpan{}
	}
	if n != 1 && (every == 0 || n%every != 0) {
		return ActiveSpan{}
	}
	return ActiveSpan{rec: r, span: Span{
		TraceID: parent.TraceID,
		SpanID:  newSpanID(),
		Parent:  parent.SpanID,
		Name:    name,
		Start:   time.Now(),
	}}
}

// StartNth samples occurrence n into the Default recorder.
func StartNth(parent SpanContext, name string, n, every uint64) ActiveSpan {
	return Default.StartNth(parent, name, n, every)
}
