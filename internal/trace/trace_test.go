package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sp := StartRoot("submit")
	sc := sp.Context()
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("root context = %+v, want valid sampled", sc)
	}
	tp := sc.Traceparent()
	if len(tp) != traceparentLen {
		t.Fatalf("traceparent %q has length %d, want %d", tp, len(tp), traceparentLen)
	}
	if !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q missing version/flags framing", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v, true", tp, got, ok, sc)
	}
	sp.Finish()

	// Unsampled flag round-trips too.
	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip = %+v, %v", got, ok)
	}
}

func TestParseTraceparentRejectsHostileInput(t *testing.T) {
	seed := StartRoot("x")
	valid := seed.Context().Traceparent()
	seed.Finish()
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // wrong version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:52] + "-01", // zero trace ID
		"00-" + valid[3:35] + "-" + strings.Repeat("0", 16) + "-01",  // zero span ID
		"00-" + strings.Repeat("g", 32) + "-" + valid[36:52] + "-01", // non-hex
		valid[:53] + "02", // unknown flags
		valid[:53] + "zz", // non-hex flags
	}
	for _, s := range bad {
		if sc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted hostile input: %+v", s, sc)
		}
	}
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("control: valid traceparent %q rejected", valid)
	}
}

func TestResume(t *testing.T) {
	root := StartRoot("submit")
	id := root.Context().TraceID.String()
	root.Finish()

	sc, ok := Resume(id)
	if !ok {
		t.Fatalf("Resume(%q) failed", id)
	}
	if sc.TraceID.String() != id {
		t.Errorf("Resume trace ID = %s, want %s", sc.TraceID, id)
	}
	if !sc.Sampled || !sc.SpanID.IsValid() {
		t.Errorf("Resume context = %+v, want sampled with fresh span ID", sc)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, ok := Resume(bad); ok {
			t.Errorf("Resume(%q) accepted invalid trace ID", bad)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	if sc := FromContext(context.Background()); sc.Valid() {
		t.Fatalf("empty context yielded %+v", sc)
	}
	sp := StartRoot("submit")
	ctx := ContextWith(context.Background(), sp.Context())
	if got := FromContext(ctx); got != sp.Context() {
		t.Fatalf("FromContext = %+v, want %+v", got, sp.Context())
	}
	// Invalid contexts don't clobber a valid one already present.
	ctx2 := ContextWith(ctx, SpanContext{})
	if got := FromContext(ctx2); got != sp.Context() {
		t.Fatalf("invalid ContextWith clobbered: %+v", got)
	}
	sp.Finish()
}

func TestChildAndNthSampling(t *testing.T) {
	rec := NewRecorder(64)
	root := rec.StartRoot("submit")
	rootCtx := root.Context()

	child := rec.StartChild(rootCtx, "place")
	if !child.Recording() {
		t.Fatal("child of sampled root not recording")
	}
	if got := child.Context(); got.TraceID != rootCtx.TraceID {
		t.Errorf("child trace ID = %s, want %s", got.TraceID, rootCtx.TraceID)
	}
	child.Finish()

	// Unsampled parent → sampled-out child, whose context is zero.
	unsampled := rootCtx
	unsampled.Sampled = false
	dead := rec.StartChild(unsampled, "x")
	if dead.Recording() || dead.Context().Valid() {
		t.Error("child of unsampled parent is recording")
	}
	dead.Finish() // must be a safe no-op
	dead.SetJob("j")
	dead.SetAttr("k", "v")

	// Invalid parent → fresh root, keeping instrumentation alive across
	// peers that don't propagate context.
	orphan := rec.StartChild(SpanContext{}, "exec")
	if !orphan.Recording() {
		t.Fatal("invalid parent should start a fresh root")
	}
	if orphan.Context().TraceID == rootCtx.TraceID {
		t.Error("orphan joined an existing trace")
	}
	orphan.Finish()

	// Nth sampling: first always, then every 4th.
	kept := 0
	for n := uint64(1); n <= 12; n++ {
		sp := rec.StartNth(rootCtx, "syscall", n, 4)
		if sp.Recording() {
			kept++
			sp.Finish()
		}
	}
	if kept != 4 { // n = 1, 4, 8, 12
		t.Errorf("StartNth kept %d of 12, want 4", kept)
	}
	if sp := rec.StartNth(SpanContext{}, "syscall", 1, 4); sp.Recording() {
		t.Error("StartNth recorded without a valid parent")
	}
	root.Finish()
}

func TestRecorderRingOverflowAndSnapshot(t *testing.T) {
	rec := NewRecorder(8)
	for i := 0; i < 20; i++ {
		sp := rec.StartRoot("op")
		sp.SetJob("ws0/1")
		sp.Finish()
	}
	if got := rec.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if got := rec.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	spans := rec.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("Snapshot retained %d spans, want 8", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Fatal("Snapshot not ordered by start time")
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := rec.StartRoot("op")
				sp.SetAttr("i", "x")
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	if got := rec.Total(); got != 4000 {
		t.Errorf("Total = %d, want 4000", got)
	}
	if got := len(rec.Snapshot()); got != 128 {
		t.Errorf("Snapshot retained %d, want full ring of 128", got)
	}
}

func TestSampledOutPathAllocatesNothing(t *testing.T) {
	rec := NewRecorder(8)
	parent := SpanContext{}
	root := rec.StartRoot("r")
	sampled := root.Context()
	n := uint64(2)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.StartNth(sampled, "syscall", n, 64)
		sp.SetJob("j")
		sp.Finish()
		sp2 := rec.StartNth(parent, "syscall", 1, 64)
		sp2.Finish()
		n++
		if n%64 == 0 {
			n++ // stay on the sampled-out path
		}
	})
	if allocs != 0 {
		t.Errorf("sampled-out span path allocates %v per run, want 0", allocs)
	}
	root.Finish()
}

func TestExplicitRecord(t *testing.T) {
	rec := NewRecorder(8)
	root := rec.StartRoot("submit")
	sc := root.Context()
	now := time.Now()
	rec.Record(Span{
		TraceID: sc.TraceID,
		SpanID:  newSpanID(),
		Parent:  sc.SpanID,
		Name:    "grant",
		Station: "coord",
		Start:   now.Add(-time.Millisecond),
		End:     now,
		Attrs:   []Attr{{Key: "incarnation", Value: "3"}},
	})
	rec.Record(Span{Name: "invalid"}) // zero IDs must be ignored
	spans := rec.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1 (invalid dropped)", len(spans))
	}
	if spans[0].Name != "grant" || spans[0].Parent != sc.SpanID {
		t.Fatalf("recorded span = %+v", spans[0])
	}
	root.Finish()
}

func TestPageForFiltersAndWaterfall(t *testing.T) {
	rec := NewRecorder(64)

	root := rec.StartRoot("submit")
	root.SetJob("ws0/1")
	root.SetStation("ws0")
	rootCtx := root.Context()
	place := rec.StartChild(rootCtx, "place")
	place.SetStation("ws1")
	time.Sleep(2 * time.Millisecond)
	exec := rec.StartChild(place.Context(), "exec")
	exec.SetStation("ws1")
	exec.SetAttr("seq", "0")
	time.Sleep(time.Millisecond)
	exec.Finish()
	place.Finish()
	root.Finish()

	other := rec.StartRoot("submit")
	other.SetJob("ws2/9")
	other.Finish()

	all := rec.PageFor("", "")
	if len(all.Spans) != 4 || all.Total != 4 {
		t.Fatalf("unfiltered page: %d spans, total %d; want 4, 4", len(all.Spans), all.Total)
	}

	byJob := rec.PageFor("", "ws0/1")
	if len(byJob.Spans) != 3 {
		t.Fatalf("job filter returned %d spans, want full trace of 3", len(byJob.Spans))
	}
	for _, s := range byJob.Spans {
		if s.TraceID != rootCtx.TraceID.String() {
			t.Errorf("job filter leaked trace %s", s.TraceID)
		}
	}

	byTrace := rec.PageFor(rootCtx.TraceID.String(), "")
	if len(byTrace.Spans) != 3 {
		t.Fatalf("trace filter returned %d spans, want 3", len(byTrace.Spans))
	}

	// The waterfall renders parent-before-child with depth indentation.
	out := RenderWaterfall(byTrace)
	iSubmit := strings.Index(out, "submit@ws0")
	iPlace := strings.Index(out, "  place@ws1")
	iExec := strings.Index(out, "    exec@ws1")
	if iSubmit < 0 || iPlace < 0 || iExec < 0 {
		t.Fatalf("waterfall missing spans:\n%s", out)
	}
	if !(iSubmit < iPlace && iPlace < iExec) {
		t.Fatalf("waterfall not parent-before-child:\n%s", out)
	}
	if !strings.Contains(out, "job=ws0/1") {
		t.Fatalf("waterfall header missing job:\n%s", out)
	}
	if RenderWaterfall(Page{}) != "no spans\n" {
		t.Error("empty page waterfall")
	}
}
