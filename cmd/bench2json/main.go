// Command bench2json converts `go test -bench` output on stdin to a
// stable JSON document on stdout, so benchmark baselines can be
// committed and diffed (see BENCH_baseline.json and `make
// bench-baseline`).
//
// With -compare it instead checks the run against a committed baseline:
// ns/op drift beyond -tolerance and allocs/op growth beyond 5 % (so any
// allocation on a previously allocation-free path) are reported (as
// GitHub annotations when running in Actions) and fail the exit code.
// CI gates on this; benchmarks too timing-sensitive for shared runners
// are excused by name in the -allowlist file — timing only (their drift
// is still printed, it just does not fail the build). A baseline row
// the run did not produce fails too, so a deleted or renamed benchmark
// cannot silently leave the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line, normalized.
type Result struct {
	Name string  `json:"name"`
	Runs int64   `json:"runs"`
	NsOp float64 `json:"ns_per_op"`
	// BOp / AllocsOp are -1 when the benchmark did not report memory.
	BOp      int64 `json:"bytes_per_op"`
	AllocsOp int64 `json:"allocs_per_op"`
	// Extra holds any custom metrics (e.g. "MB/s", "dials/station").
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Document is the whole baseline file.
type Document struct {
	GoOS    string   `json:"goos,omitempty"`
	GoArch  string   `json:"goarch,omitempty"`
	Package []string `json:"packages,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	var (
		comparePath = flag.String("compare", "",
			"compare the run on stdin against this baseline JSON instead of emitting JSON")
		tolerance = flag.Float64("tolerance", 0.30,
			"allowed fractional ns/op drift vs the baseline (0.30 = ±30%)")
		allowlistPath = flag.String("allowlist", "",
			"file of benchmark names (one per line, # comments) whose timing drift is reported but never fails the exit code")
	)
	flag.Parse()
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if *comparePath != "" {
		allow, err := loadAllowlist(*allowlistPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
		os.Exit(compare(*comparePath, *tolerance, allow, doc))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
}

// normName strips the trailing GOMAXPROCS suffix ("-8") so fresh runs
// match baselines generated on machines with different core counts.
func normName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// loadAllowlist reads one benchmark name per line; blank lines and
// #-comments are skipped. Names are matched after normName, so the file
// lists "BenchmarkCycle1000", not "BenchmarkCycle1000-8".
func loadAllowlist(path string) (map[string]bool, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			allow[normName(line)] = true
		}
	}
	return allow, nil
}

// allocTolerance is the allowed fractional allocs/op growth vs the
// baseline. Allocation counts are close to exact, not runner noise, so
// the bound is fixed, applies to every row that reports memory, and is
// never excused by the allowlist; a 0 allocs/op path may not allocate
// at all.
const allocTolerance = 0.05

// compare reports drift of the stdin run versus the committed baseline.
// Returns the process exit code: 0 in tolerance, 1 on timing drift,
// allocation growth or a baseline row missing from the run. Allowlisted
// benchmarks report timing drift without failing.
func compare(baselinePath string, tolerance float64, allow map[string]bool, cur *Document) int {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		return 1
	}
	var base Document
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %s: %v\n", baselinePath, err)
		return 1
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[normName(r.Name)] = r
	}
	annotate := os.Getenv("GITHUB_ACTIONS") == "true"
	bad := 0
	ran := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		name := normName(r.Name)
		ran[name] = true
		b, ok := baseline[name]
		if !ok {
			fmt.Printf("NEW   %-40s %10.1f ns/op (no baseline; add with `make bench-baseline`)\n",
				name, r.NsOp)
			continue
		}
		delta := 0.0
		if b.NsOp > 0 {
			delta = (r.NsOp - b.NsOp) / b.NsOp
		}
		switch {
		case b.AllocsOp >= 0 && float64(r.AllocsOp) > float64(b.AllocsOp)*(1+allocTolerance):
			bad++
			fmt.Printf("ALLOC %-40s %d -> %d allocs/op (tolerance %.0f%%)\n",
				name, b.AllocsOp, r.AllocsOp, 100*allocTolerance)
			if annotate {
				fmt.Printf("::warning title=bench drift::%s allocates more (%d -> %d allocs/op)\n",
					name, b.AllocsOp, r.AllocsOp)
			}
		case delta > tolerance && allow[name]:
			fmt.Printf("SLOW  %-40s %10.1f -> %10.1f ns/op (%+.0f%%, allowlisted)\n",
				name, b.NsOp, r.NsOp, 100*delta)
		case delta > tolerance:
			bad++
			fmt.Printf("SLOW  %-40s %10.1f -> %10.1f ns/op (%+.0f%%, tolerance %.0f%%)\n",
				name, b.NsOp, r.NsOp, 100*delta, 100*tolerance)
			if annotate {
				fmt.Printf("::warning title=bench drift::%s %.1f -> %.1f ns/op (%+.0f%% > %.0f%%)\n",
					name, b.NsOp, r.NsOp, 100*delta, 100*tolerance)
			}
		default:
			fmt.Printf("ok    %-40s %10.1f -> %10.1f ns/op (%+.0f%%)\n", name, b.NsOp, r.NsOp, 100*delta)
		}
	}
	for _, r := range base.Results {
		if name := normName(r.Name); !ran[name] {
			bad++
			fmt.Printf("MISSING %s (in the baseline, not in this run)\n", name)
		}
	}
	if bad > 0 {
		fmt.Printf("%d benchmark(s) outside tolerance or missing\n", bad)
		return 1
	}
	return 0
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Package = append(doc.Package, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Results) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return doc, nil
}

// parseResult decodes one line of the form:
//
//	BenchmarkName-8  1000  1234 ns/op  56 B/op  7 allocs/op  [val unit]...
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Runs: runs, BOp: -1, AllocsOp: -1}
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsOp = v
		case "B/op":
			r.BOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}
