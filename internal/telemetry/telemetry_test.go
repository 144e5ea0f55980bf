package telemetry

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registering the same counter minted a new instance")
	}

	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}

	text := r.Text()
	for _, want := range []string{
		"# HELP test_total a counter",
		"# TYPE test_total counter",
		"test_total 42",
		"# TYPE test_gauge gauge",
		"test_gauge 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestVecInterning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "per-state jobs", "state")
	a := v.With("idle")
	b := v.With("idle")
	if a != b {
		t.Fatal("With minted two counters for the same label value")
	}
	v.With("running").Add(3)
	a.Inc()

	text := r.Text()
	if !strings.Contains(text, `jobs_total{state="idle"} 1`) {
		t.Errorf("missing idle series:\n%s", text)
	}
	if !strings.Contains(text, `jobs_total{state="running"} 3`) {
		t.Errorf("missing running series:\n%s", text)
	}
	// HELP/TYPE must appear once per family, not per series.
	if n := strings.Count(text, "# TYPE jobs_total"); n != 1 {
		t.Errorf("TYPE line appears %d times, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "h", "name").With("a\"b\\c\nd").Set(1)
	if want := `g{name="a\"b\\c\nd"} 1`; !strings.Contains(r.Text(), want) {
		t.Errorf("escaped label missing %q:\n%s", want, r.Text())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 102.65; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	text := r.Text()
	for _, want := range []string{
		// le is inclusive: 0.05 and 0.1 both land in the 0.1 bucket.
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 102.65`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramVecSharesFamilyHeader(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("rpc_seconds", "rpc latency", "op", []float64{1})
	v.With("poll").ObserveDuration(500 * time.Millisecond)
	v.With("grant").Observe(2)
	text := r.Text()
	if !strings.Contains(text, `rpc_seconds_bucket{op="poll",le="1"} 1`) {
		t.Errorf("merged labels wrong:\n%s", text)
	}
	if !strings.Contains(text, `rpc_seconds_bucket{op="grant",le="+Inf"} 1`) {
		t.Errorf("grant series wrong:\n%s", text)
	}
	if n := strings.Count(text, "# HELP rpc_seconds"); n != 1 {
		t.Errorf("HELP appears %d times, want 1", n)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("sampled", "sampled at scrape", func() float64 { return 2.5 })
	if !strings.Contains(r.Text(), "sampled 2.5") {
		t.Errorf("sampled gauge missing:\n%s", r.Text())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

func TestServeMetricsAndHealth(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "h").Add(7)
	srv, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "served_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestServeHealthzAnswersItsOwnCheck: /healthz answers the ready check
// its listener was given, and nothing else: one listener's failing check
// does not make another listener in the same process unready.
func TestServeHealthzAnswersItsOwnCheck(t *testing.T) {
	var down atomic.Bool
	unready, err := Serve("127.0.0.1:0", NewRegistry(), func() error {
		if down.Load() {
			return errors.New("journal unhealthy")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unready.Close()
	ready, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Close()

	healthz := func(srv *Server) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := healthz(unready); code != http.StatusOK {
		t.Fatalf("healthy check: %d %q", code, body)
	}
	down.Store(true)
	if code, body := healthz(unready); code != http.StatusServiceUnavailable || body != "not ready\njournal unhealthy\n" {
		t.Errorf("failing check: %d %q, want 503 naming the reason", code, body)
	}
	if code, body := healthz(ready); code != http.StatusOK {
		t.Errorf("a listener without a check: %d %q, want 200", code, body)
	}
}
