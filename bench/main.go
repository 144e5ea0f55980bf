// Command bench is the repository's end-to-end benchmark: it builds live
// loopback pools from the constructors the daemons use, drives them from
// one process with two load goroutines, checks every job's output, and
// prints every metric by name with its unit. See README.md.
//
//	go run -C bench . --workload sched-burst --seed 1 --seconds 15 --trace 0
//	go run -C bench . --workload all --seed 1 --trace 1 --out a.jsonl
//	go run -C bench . --agree a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metric is one named, unit-tagged value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line:
// exactly the keys of the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says what produced a result, so that a history row can be
// cut from a result-set line unchanged.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Rounds     int     `json:"rounds"`
	Ops        float64 `json:"ops"`
	OpUnit     string  `json:"op_unit"`
	WallS      float64 `json:"wall_s"`
	// Failures holds the first reasons operations failed, if any did.
	Failures []string `json:"failures,omitempty"`
}

// record is one line of a result-set file (--out): what --agree reads.
// A traced run's Metrics are the per-layer ones; it carries its
// end-to-end figures separately.
type record struct {
	provenance
	result
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 15, "repeat rounds until this much time has passed")
		rounds  = flag.Int("rounds", 0, "run exactly this many rounds instead of --seconds")
		traced  = flag.Int("trace", 0, "1 = traced run: spans, probes, per-layer metrics, layer budget")
		out     = flag.String("out", "", "append each result, with provenance, to this JSONL file")
		outDir  = flag.String("outdir", "out", "directory for trace files and the coordinator journal")
		agree   = flag.Bool("agree", false, "compare two result sets: --agree a.jsonl b.jsonl")
	)
	flag.Parse()
	if *agree {
		os.Exit(runAgree(flag.Args()))
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	opts := runOptions{
		seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		rounds: *rounds, traced: *traced != 0, outDir: *outDir, sizes: fullSizes,
	}
	code := 0
	for _, w := range todo {
		rec, err := runWorkload(w, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printHuman(os.Stderr, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}
		line, _ := json.Marshal(rec.result)
		fmt.Println(string(line))
		if !rec.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit asks git for HEAD; a checkout that is not a repository (the
// driver's) reports "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newProvenance(w *workload, opts runOptions) provenance {
	return provenance{
		Workload: w.name, Seed: opts.seed, Trace: opts.traced,
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		OpUnit: w.op,
	}
}
