package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func smallOptions(t *testing.T, seed int64, traced bool) runOptions {
	return runOptions{seed: seed, rounds: 2, traced: traced, outDir: t.TempDir(), sizes: smallSizes}
}

// checkMetrics asserts a result carries exactly the declared metrics,
// each finite and unit-tagged, and that nothing failed.
func checkMetrics(t *testing.T, rec *record, defs []metricDef, nonZero bool) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", rec.Workload, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: %s has unit %q, want %q", rec.Workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, d.name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", rec.Workload, d.name, m.Value)
		}
	}
}

// TestWorkloads runs every workload at about 1/50 scale, untraced and
// traced, and checks every declared metric is there and every output
// was verified.
func TestWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rec, err := runWorkload(w, smallOptions(t, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rec, endToEnd, true)

			opts := smallOptions(t, 1, true)
			rec, err = runWorkload(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rec, perLayer, false)
			if rec.Metrics["failed_share"].Value != 0 {
				t.Errorf("failed_share = %v", rec.Metrics["failed_share"].Value)
			}
			if cov := rec.Metrics["budget.coverage"].Value; cov <= 0 {
				t.Errorf("budget.coverage = %v", cov)
			}
			if _, err := os.Stat(opts.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// oneRound runs a single untraced round and returns its layer counts.
func oneRound(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w := findWorkload(name)
	in, err := w.prepare(seed, smallSizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.run(in, smallSizes, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s seed %d: %d failed: %v", name, seed, r.failed, r.failures)
	}
	return r.layer
}

// TestCountsRepeat checks the counts that must not depend on timing:
// equal for equal seeds, and tied to the seed where the seed shapes the
// guest's work (the text WordCountProgram scans).
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, b := oneRound(t, w.name, 1), oneRound(t, w.name, 1)
		for _, key := range exactCounts {
			if a[key] != b[key] {
				t.Errorf("%s: %s = %v then %v with the same seed", w.name, key, a[key], b[key])
			}
		}
	}
	a, b := oneRound(t, "syscall-stream", 1), oneRound(t, "syscall-stream", 2)
	if a["cvm.steps"] == b["cvm.steps"] {
		t.Errorf("syscall-stream: cvm.steps = %v for seeds 1 and 2", a["cvm.steps"])
	}
	if a["cvm.steps"] == 0 || a["ru.syscalls"] == 0 {
		t.Errorf("syscall-stream: cvm.steps = %v, ru.syscalls = %v", a["cvm.steps"], a["ru.syscalls"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's declarations
// the same list of workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d emitted", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: declared %s (%s), emitted %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, d.name, got[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, e := range spec.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles.
func TestSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles(v, n=4) = [2.75, 5.5, 8.25]
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}
