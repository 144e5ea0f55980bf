package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that --agree needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree compares two result sets (JSONL files written with --out)
// against the bounds BENCHMARK.json fixes, one row per workload and
// end-to-end metric: "ok", "unresolved" when either set's own spread
// (interquartile range over median) is wider than the bound, "worse"
// when the second median is worse than the first by more than the bound.
// Counts that must repeat exactly are compared for equal seeds. It
// returns 1 if any row is worse, 2 on bad input.
func runAgree(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: --agree needs two result files")
		return 2
	}
	var spec benchmarkFile
	data, err := os.ReadFile("../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	worse := 0
	fmt.Printf("%-15s %-20s %12s %8s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median_a", "spread_a", "median_b", "spread_b", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			va := a.values(w.name, m.Name, false)
			vb := b.values(w.name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			change := ratio(mb-ma, ma)
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			// setup_s is gated on its medians only: its spread is
			// reported but may exceed the bound.
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-20s %12.4f %7.1f%% %12.4f %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				w.name, m.Name, ma, 100*sa, mb, 100*sb, 100*change, 100*m.Bound, verdict)
		}
	}
	for _, ra := range a {
		if !ra.Trace {
			continue
		}
		for _, rb := range b {
			if !rb.Trace || rb.Workload != ra.Workload || rb.Seed != ra.Seed {
				continue
			}
			for _, key := range exactCounts {
				if x, y := ra.Metrics[key].Value, rb.Metrics[key].Value; x != y {
					fmt.Printf("%-15s %-20s seed %d: %v against %v  worse (must repeat exactly)\n", ra.Workload, key, ra.Seed, x, y)
					worse++
				}
			}
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

type recordSet []record

func readRecords(path string) (recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set recordSet
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, r)
	}
	return set, sc.Err()
}

func (s recordSet) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range s {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// gives them (the driver's rule). Fewer than two values have no spread.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}
