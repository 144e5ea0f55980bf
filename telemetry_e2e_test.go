package condor

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"condor/internal/telemetry"
)

// TestTelemetryEndToEnd boots a live pool (coordinator + stations over
// real TCP), runs a job through it, serves the process-wide registry
// over HTTP the way condor-coordinator -http does, scrapes /metrics,
// and asserts the key series are present, parseable, and moving: RPC
// latency histograms from the wire layer, coordinator cycle duration,
// and the shadow syscall round-trip histogram.
func TestTelemetryEndToEnd(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := NewPool(PoolConfig{Stations: 2, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	jobID, err := p.Submit("ws0", "alice", SumProgram(10_000))
	if err != nil {
		t.Fatal(err)
	}
	status, err := p.Wait(jobID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobCompleted {
		t.Fatalf("job state = %v, want completed", status.State)
	}

	body := scrapeMetrics(t, srv.Addr())

	// The RPC latency histogram must expose the full bucket/sum/count
	// triplet and have observed the pool's traffic.
	for _, want := range []string{
		"# TYPE condor_wire_rpc_latency_seconds histogram",
		`condor_wire_rpc_latency_seconds_bucket{le="+Inf"}`,
		"condor_wire_rpc_latency_seconds_sum",
		"condor_wire_rpc_latency_seconds_count",
		"# TYPE condor_coordinator_cycle_seconds histogram",
		"condor_coordinator_cycle_seconds_count",
		"# TYPE condor_ru_shadow_syscall_seconds histogram",
		"# TYPE condor_coordinator_stations gauge",
		"# TYPE condor_schedd_job_transitions_total counter",
		`condor_schedd_job_transitions_total{state="completed"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", body)
		t.FailNow()
	}

	if v := seriesValue(t, body, "condor_wire_rpc_latency_seconds_count"); v == 0 {
		t.Error("condor_wire_rpc_latency_seconds_count = 0, want RPC traffic recorded")
	}
	if v := seriesValue(t, body, "condor_coordinator_cycle_seconds_count"); v == 0 {
		t.Error("condor_coordinator_cycle_seconds_count = 0, want cycles recorded")
	}
	// SumProgram prints its result, so at least one guest syscall rode
	// the shadow connection.
	if v := seriesValue(t, body, "condor_ru_shadow_syscall_seconds_count"); v == 0 {
		t.Error("condor_ru_shadow_syscall_seconds_count = 0, want shadow syscalls recorded")
	}

	// /healthz must answer while the pool is live.
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %s", resp.Status)
	}

	// pprof must be mounted on the same listener.
	resp2, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %s", resp2.Status)
	}
}

func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// seriesValue finds an unlabeled series line and parses its value,
// proving the exposition is machine-readable, not just grep-matchable.
func seriesValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
		if err != nil {
			t.Fatalf("series %s has unparseable value %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("series %s not found", name)
	return 0
}
