package telemetry

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hostileLabelValues: backslash, quote, newline, and the combination an
// attacker would pick to break a line-oriented parser. Shared with
// FuzzParseText's seeds.
var hostileLabelValues = []string{
	`plain`,
	`back\slash`,
	`quo"te`,
	"new\nline",
	`all\"of` + "\nthem",
}

// garbagePages are malformed pages the parser must reject. Shared with
// FuzzParseText's seeds.
var garbagePages = []string{
	"no_value_here\n",
	"1leading_digit 3\n",
	`m{l="unterminated} 1` + "\n",
	`m{l="x"} notanumber` + "\n",
	`m{l="bad\escape"} 1` + "\n",
	"# TYPE m wat\n",
}

// TestExpositionConformance round-trips our own /metrics output through
// the format parser: every family we emit must come back with the right
// type, every hostile label value must survive escaping, and the
// histogram triplet must be internally consistent. This is the contract
// the Content-Type header claims (text format 0.0.4).
func TestExpositionConformance(t *testing.T) {
	reg := NewRegistry()

	c := reg.Counter("conf_requests_total", "Requests with a \\ backslash and\na newline in HELP.")
	c.Add(42)

	vec := reg.CounterVec("conf_labeled_total", "Labeled series.", "path")
	hostile := hostileLabelValues
	for i, v := range hostile {
		vec.With(v).Add(uint64(i + 1))
	}

	g := reg.Gauge("conf_depth", "A gauge.")
	g.Set(-7)

	h := reg.Histogram("conf_latency_seconds", "A histogram.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}

	page, err := ParseTextString(reg.Text())
	if err != nil {
		t.Fatalf("our own exposition output does not parse: %v\n%s", err, reg.Text())
	}

	cf := page.Family("conf_requests_total")
	if cf == nil || cf.Type != "counter" {
		t.Fatalf("conf_requests_total family = %+v, want counter", cf)
	}
	if want := "Requests with a \\ backslash and\na newline in HELP."; cf.Help != want {
		t.Errorf("HELP round trip = %q, want %q", cf.Help, want)
	}
	if v, ok := page.Value("conf_requests_total"); !ok || v != 42 {
		t.Errorf("conf_requests_total = %v ok=%v, want 42", v, ok)
	}

	for i, hv := range hostile {
		v, ok := page.Value("conf_labeled_total", "path", hv)
		if !ok {
			t.Errorf("label value %q did not survive the round trip", hv)
			continue
		}
		if v != float64(i+1) {
			t.Errorf("series for %q = %v, want %d", hv, v, i+1)
		}
	}

	if v, ok := page.Value("conf_depth"); !ok || v != -7 {
		t.Errorf("conf_depth = %v ok=%v, want -7", v, ok)
	}

	hf := page.Family("conf_latency_seconds")
	if hf == nil || hf.Type != "histogram" {
		t.Fatalf("conf_latency_seconds family = %+v, want histogram", hf)
	}
	// Histogram invariants: buckets cumulative and monotone, +Inf
	// bucket equals _count, _sum matches.
	var last float64
	for _, le := range []string{"0.1", "1", "10", "+Inf"} {
		v, ok := page.Value("conf_latency_seconds_bucket", "le", le)
		if !ok {
			t.Fatalf("bucket le=%q missing", le)
		}
		if v < last {
			t.Errorf("bucket le=%q = %v not monotone (prev %v)", le, v, last)
		}
		last = v
	}
	if inf, _ := page.Value("conf_latency_seconds_bucket", "le", "+Inf"); inf != 4 {
		t.Errorf("+Inf bucket = %v, want 4", inf)
	}
	if cnt, _ := page.Value("conf_latency_seconds_count"); cnt != 4 {
		t.Errorf("_count = %v, want 4", cnt)
	}
	if sum, _ := page.Value("conf_latency_seconds_sum"); math.Abs(sum-55.55) > 1e-9 {
		t.Errorf("_sum = %v, want 55.55", sum)
	}
}

// TestExpositionContentType pins the version header the text format
// requires — scrapers negotiate on it.
func TestExpositionContentType(t *testing.T) {
	rec := httptest.NewRecorder()
	NewRegistry().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := rec.Header().Get("Content-Type")
	want := "text/plain; version=0.0.4; charset=utf-8"
	if got != want {
		t.Fatalf("Content-Type = %q, want %q", got, want)
	}
}

// TestExemplarCommentsAreSkipped: our exemplar annotations ride comment
// lines; a conforming parser (ours included) must pass over them.
func TestExemplarCommentsAreSkipped(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conf_ex_seconds", "With exemplar.", []float64{1})
	h.ObserveExemplar(0.5, "trace=00112233 span=4455")
	text := reg.Text()
	if !strings.Contains(text, "# exemplar") {
		t.Fatalf("expected exemplar comment in:\n%s", text)
	}
	page, err := ParseTextString(text)
	if err != nil {
		t.Fatalf("exemplar comment broke parsing: %v", err)
	}
	if cnt, _ := page.Value("conf_ex_seconds_count"); cnt != 1 {
		t.Fatalf("_count = %v, want 1", cnt)
	}
}

// TestParseRejectsGarbage: the parser must fail loudly on malformed
// pages, not quietly mis-ingest them.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range garbagePages {
		if _, err := ParseTextString(bad); err == nil {
			t.Errorf("ParseTextString(%q) accepted garbage", bad)
		}
	}
}

// TestParseHTTPBody exercises the parser against a live handler the way
// condor-web's scraper uses it.
func TestParseHTTPBody(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("conf_live_total", "Live.").Add(3)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	page, err := ParseTextString(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := page.Value("conf_live_total"); !ok || v != 3 {
		t.Fatalf("conf_live_total = %v ok=%v, want 3", v, ok)
	}
}
