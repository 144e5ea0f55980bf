package telemetry

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// hostileLabelValues: backslash, quote, newline, and the combination an
// attacker would pick to break a line-oriented parser.
var hostileLabelValues = []string{
	`plain`,
	`back\slash`,
	`quo"te`,
	"new\nline",
	`all\"of` + "\nthem",
}

// TestExpositionConformance pins a fixed registry's /metrics page byte
// for byte against testdata/exposition.golden: HELP escaping, every
// hostile label value escaped, a gauge, a histogram's cumulative
// buckets with +Inf, _sum and _count, and an exemplar on a comment line
// that parsers skip. The golden was checked against the text format
// (0.0.4) the Content-Type header claims. Set CONDOR_REGEN_GOLDEN=1 to
// rewrite it after a deliberate format change.
func TestExpositionConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("conf_requests_total", "Requests with a \\ backslash and\na newline in HELP.").Add(42)
	vec := reg.CounterVec("conf_labeled_total", "Labeled series.", "path")
	for i, v := range hostileLabelValues {
		vec.With(v).Add(uint64(i + 1))
	}
	reg.Gauge("conf_depth", "A gauge.").Set(-7)
	h := reg.Histogram("conf_latency_seconds", "A histogram.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 50} {
		h.Observe(v)
	}
	h.ObserveExemplar(5, "trace=00112233 span=4455")

	const golden = "testdata/exposition.golden"
	got := reg.Text()
	if os.Getenv("CONDOR_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
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
