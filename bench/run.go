package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports untraced; the driver
// gates each against the bound BENCHMARK.json fixes. "op" is the
// workload's unit of work: a job on sched-burst, a cycle on pool-scale,
// a forwarded syscall on syscall-stream, a migration on ckpt-migrate.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"allocs_per_op", "count"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

type runOptions struct {
	seed   int64
	budget time.Duration
	rounds int
	traced bool
	outDir string
	sizes  sizes
}

// exactCounts must be identical in every round of a run: the rounds
// replay the same seeded inputs.
var exactCounts = []string{"cvm.steps", "ru.syscalls", "schedd.placements", "ru.vacates", "cvm.badput_steps"}

// runWorkload prepares the seeded inputs once, repeats identical rounds
// until the time budget (or round count) is spent, and folds them into
// one result: medians over rounds for rates and set-up, percentiles over
// the pooled samples for latencies.
func runWorkload(w *workload, opts runOptions) (*record, error) {
	in, err := w.prepare(opts.seed, opts.sizes)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var rec *recorder
	if opts.traced {
		rec = newRecorder()
	}
	start := time.Now()
	var rounds []*round
	var tracedRound []bool
	for i := 0; ; i++ {
		if opts.rounds > 0 && i >= opts.rounds {
			break
		}
		if opts.rounds == 0 && i > 0 && time.Since(start) >= opts.budget {
			break
		}
		// A traced run alternates traced and untraced rounds; the gap
		// between their walls is the tracing overhead.
		roundRec := rec
		if i%2 == 1 {
			roundRec = nil
		}
		// Every round starts from a collected heap, so the resident peak
		// is one round's, not an accident of when the collector last ran.
		runtime.GC()
		r, err := w.run(in, opts.sizes, roundRec, opts.outDir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		tracedRound = append(tracedRound, roundRec != nil)
	}

	out := &record{provenance: newProvenance(w, opts)}
	out.Rounds = len(rounds)
	out.WallS = time.Since(start).Seconds()
	out.Metrics = make(map[string]metric)
	var setups, rates, allocs, cpu, lat []float64
	for i, r := range rounds {
		out.Attempted += r.attempted
		out.Failed += r.failed
		out.Failures = append(out.Failures, r.failures...)
		out.Ops += r.ops
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, ratio(r.ops, r.wall.Seconds()))
		allocs = append(allocs, ratio(r.layer["allocs"], r.ops))
		cpu = append(cpu, ratio(r.layer["cpu_s"]*1e6, r.ops))
		lat = append(lat, r.lat...)
		for _, key := range exactCounts {
			if r.layer[key] != rounds[0].layer[key] {
				out.Failed++
				out.Failures = append(out.Failures, fmt.Sprintf("round %d: %s = %v, round 0 had %v", i, key, r.layer[key], rounds[0].layer[key]))
			}
		}
	}
	if bad := rounds[0].layer["cvm.badput_steps"]; bad != 0 {
		out.Failed++
		out.Failures = append(out.Failures, fmt.Sprintf("%v badput steps, want 0", bad))
	}
	if out.Failed > out.Attempted {
		out.Failed = out.Attempted
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0

	tail := tailPercentile(len(lat))
	values := map[string]float64{
		"setup_s":          median(setups),
		"throughput_per_s": median(rates),
		"latency_p50_ms":   median(lat),
		"latency_tail_ms":  percentile(lat, tail),
		"allocs_per_op":    median(allocs),
		"cpu_us_per_op":    median(cpu),
		"peak_rss_mb":      peakRSSMB(),
	}
	defs := endToEnd
	if opts.traced {
		defs = perLayer
		out.EndToEnd = make(map[string]metric)
		for _, d := range endToEnd {
			out.EndToEnd[d.name] = metric{Value: values[d.name], Unit: d.unit}
		}
		if err := layerMetrics(values, w, rounds, tracedRound, rec, opts); err != nil {
			return nil, err
		}
		values["latency_tail_pct"] = 100 * tail
		values["latency_samples"] = float64(len(lat))
		values["failed_share"] = ratio(float64(out.Failed), float64(out.Attempted))
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out, nil
}

// printHuman writes the result as a table for a person; the JSON line on
// standard output is for programs.
func printHuman(w io.Writer, rec *record) {
	fmt.Fprintf(w, "\n%s  seed=%d trace=%v  %d rounds, %.0f %ss in %.1fs  commit=%.12s %s nproc=%d gomaxprocs=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Rounds, rec.Ops, rec.OpUnit, rec.WallS,
		rec.Commit, rec.GoVersion, rec.NProc, rec.GoMaxProcs)
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, set := range []map[string]metric{rec.EndToEnd, rec.Metrics} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}
