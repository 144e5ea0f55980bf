// Command condor-sim reproduces the paper's evaluation section: it runs
// the month-scale simulation of the 23-workstation pool under the
// Table 1 workload and prints every table and figure (Table 1, Figures
// 2–9) plus the §3 scalars. The -experiment flag prints a single
// artifact; -ablation runs the design-choice comparisons from DESIGN.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"condor/internal/decision"
	"condor/internal/policy"
	"condor/internal/simulation"
)

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		machines   = flag.Int("machines", 23, "number of workstations")
		days       = flag.Int("days", 30, "observation window in days")
		seed       = flag.Int64("seed", 1987, "random seed")
		experiment = flag.String("experiment", "all",
			"what to print: all, table1, fig2..fig9, scalars")
		ablation = flag.String("ablation", "",
			"run an ablation: vacate, pacing, updown, history, periodic")
		policyNames = flag.String("policy", "",
			"scheduling policy to run ("+strings.Join(policy.Names(), ", ")+"); a comma-separated list runs an A/B comparison")
		seeds   = flag.Int("seeds", 0, "aggregate over this many seeds (prints mean ± std) instead of one run")
		jsonOut = flag.String("json", "", "also write the full report as JSON to this file")
		csvOut  = flag.String("csv", "", "also write hourly+by-demand CSVs with this path prefix")
		explain = flag.Bool("explain", false,
			"audit every cycle's decision and show where the -policy pair's grants diverge (default pair: updown,fifo)")
	)
	flag.Parse()
	if *explain {
		names := []string{"updown", "fifo"}
		if *policyNames != "" {
			names = strings.Split(*policyNames, ",")
		}
		if err := runExplainAB(baseConfig(*machines, *days, *seed), names); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *policyNames != "" && strings.Contains(*policyNames, ",") {
		if err := runPolicyAB(baseConfig(*machines, *days, *seed), strings.Split(*policyNames, ",")); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *seeds > 1 {
		cfg := baseConfig(*machines, *days, *seed)
		cfg.Policy.Name = *policyNames
		list := make([]int64, *seeds)
		for i := range list {
			list[i] = *seed + int64(i)
		}
		fmt.Print(simulation.RunMany(cfg, list).String())
		return
	}
	if err := run(*machines, *days, *seed, *experiment, *ablation, *policyNames, *jsonOut, *csvOut); err != nil {
		log.Fatal(err)
	}
}

func baseConfig(machines, days int, seed int64) simulation.Config {
	cfg := simulation.DefaultConfig()
	cfg.Machines = machines
	cfg.Days = days
	cfg.Seed = seed
	return cfg
}

func run(machines, days int, seed int64, experiment, ablation, policyName, jsonOut, csvOut string) error {
	cfg := baseConfig(machines, days, seed)
	if policyName != "" {
		if _, err := policy.New(policyName); err != nil {
			return err
		}
		cfg.Policy.Name = policyName
	}
	if ablation != "" {
		return runAblation(cfg, ablation)
	}
	rep := simulation.Run(cfg)
	if jsonOut != "" {
		if err := writeFileWith(jsonOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := writeFileWith(csvOut+"-hourly.csv", rep.WriteHourlyCSV); err != nil {
			return err
		}
		if err := writeFileWith(csvOut+"-by-demand.csv", rep.WriteByDemandCSV); err != nil {
			return err
		}
	}
	switch experiment {
	case "all":
		fmt.Print(rep.String())
	case "table1":
		fmt.Print(rep.Table1())
	case "fig2":
		fmt.Print(rep.Figure2())
	case "fig3":
		fmt.Print(rep.Figure3())
	case "fig4":
		fmt.Print(rep.Figure4())
	case "fig5":
		fmt.Print(rep.Figure5())
	case "fig6":
		fmt.Print(rep.Figure6())
	case "fig7":
		fmt.Print(rep.Figure7())
	case "fig8":
		fmt.Print(rep.Figure8())
	case "fig9":
		fmt.Print(rep.Figure9())
	case "scalars":
		printScalars(rep)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func printScalars(rep *simulation.Report) {
	fmt.Printf("jobs: %d submitted, %d completed\n", rep.TotalJobs, rep.CompletedJobs)
	fmt.Printf("machine-hours: %.0f total, %.0f available (%.0f%%), %.0f consumed by Condor\n",
		rep.TotalMachineHours, rep.AvailableHours,
		100*rep.AvailableHours/rep.TotalMachineHours, rep.ConsumedHours)
	fmt.Printf("local utilization: %.0f%%\n", 100*rep.LocalUtilMean)
	fmt.Printf("wait ratio: all %.2f, light users %.2f\n",
		rep.MeanWaitRatioAll, rep.MeanWaitRatioLight)
	fmt.Printf("leverage: overall %.0f, short jobs %.0f\n",
		rep.OverallLeverage, rep.ShortJobLeverage)
	fmt.Printf("checkpoints/job %.2f; vacates %d; preemptions %d\n",
		rep.MeanCkptsPerJob, rep.Vacates, rep.Preempts)
	fmt.Printf("peak per-station placement burst: %d per cycle\n", rep.PeakStationBurst)
}

// runPolicyAB runs the same seeded month once per named policy and
// prints the §3 scalars side by side — every registered policy gets a
// free A/B against the paper's workload.
func runPolicyAB(base simulation.Config, names []string) error {
	for _, name := range names {
		name = strings.TrimSpace(name)
		if _, err := policy.New(name); err != nil {
			return err
		}
		cfg := base
		cfg.Policy.Name = name
		if name == "" {
			name = policy.DefaultPolicy
		}
		rep := simulation.Run(cfg)
		fmt.Printf("=== policy %s ===\n", name)
		printScalars(rep)
		fmt.Println()
	}
	return nil
}

// runExplainAB runs the same seeded workload once per policy with a
// decision-audit recorder attached, then walks the retained cycles and
// prints the first divergences: cycles where the two policies, looking
// at their own evolving pools, granted different (requester, machine)
// pairs. The full audit of each side is printed so the ranking and
// predicate trail explain *why* they diverged.
func runExplainAB(base simulation.Config, names []string) error {
	if len(names) != 2 {
		return fmt.Errorf("-explain compares exactly two policies, got %d", len(names))
	}
	type side struct {
		name   string
		rec    *decision.Recorder
		cycles map[uint64]*decision.CycleAudit
	}
	sides := make([]*side, 2)
	// The month is ~21k cycles; retain them all so early divergences
	// (where the policies first split) are still in the ring.
	capacity := (base.Days + 10) * 24 * 60
	for i, name := range names {
		name = strings.TrimSpace(name)
		if _, err := policy.New(name); err != nil {
			return err
		}
		cfg := base
		cfg.Policy.Name = name
		cfg.Audit = decision.NewRecorder(capacity)
		simulation.Run(cfg)
		if name == "" {
			name = policy.DefaultPolicy
		}
		audits := cfg.Audit.Snapshot()
		s := &side{name: name, rec: cfg.Audit,
			cycles: make(map[uint64]*decision.CycleAudit, len(audits))}
		for j := range audits {
			s.cycles[audits[j].Cycle] = &audits[j]
		}
		sides[i] = s
	}

	grantKey := func(a *decision.CycleAudit) string {
		parts := make([]string, 0, len(a.Grants))
		for _, g := range a.Grants {
			parts = append(parts, g.Requester+"→"+g.Exec)
		}
		sort.Strings(parts)
		return strings.Join(parts, " ")
	}
	total, diverged, shown := 0, 0, 0
	const showMax = 3
	for c := uint64(1); ; c++ {
		a, okA := sides[0].cycles[c]
		b, okB := sides[1].cycles[c]
		if !okA || !okB {
			if !okA && !okB {
				break
			}
			continue
		}
		total++
		ka, kb := grantKey(a), grantKey(b)
		if ka == kb {
			continue
		}
		diverged++
		if shown < showMax {
			shown++
			fmt.Printf("=== divergence %d at cycle %d ===\n", shown, c)
			fmt.Printf("%s grants: %s\n%s grants: %s\n\n", sides[0].name, orNone(ka), sides[1].name, orNone(kb))
			fmt.Printf("--- %s ---\n%s\n--- %s ---\n%s\n", sides[0].name,
				decision.RenderCycle(a), sides[1].name, decision.RenderCycle(b))
		}
	}
	fmt.Printf("%s vs %s: %d of %d audited cycles granted differently (%d shown in full)\n",
		sides[0].name, sides[1].name, diverged, total, shown)
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func runAblation(base simulation.Config, which string) error {
	type variant struct {
		name string
		cfg  simulation.Config
	}
	var variants []variant
	switch which {
	case "vacate":
		kill := base
		kill.Vacate = simulation.VacateKillImmediately
		kill.PeriodicCheckpoint = 30 * time.Minute
		variants = []variant{{"suspend-then-vacate (paper)", base}, {"kill-immediately + 30m periodic ckpt (§4)", kill}}
	case "pacing":
		burst := base
		burst.Policy = policy.DefaultConfig()
		burst.Policy.MaxGrantsPerCycle = 16
		burst.Policy.AllowBurstPerStation = true
		variants = []variant{{"paced placements (paper §4)", base}, {"unpaced bursts", burst}}
	case "updown":
		fifo := base
		fifo.Policy.Name = "fifo"
		variants = []variant{{"Up-Down (paper)", base}, {"FIFO grants", fifo}}
	case "history":
		hist := base
		hist.Policy = policy.DefaultConfig()
		hist.Policy.Placement = policy.PlaceHistory
		variants = []variant{{"first-fit placement (paper)", base}, {"availability-history placement (§5.1)", hist}}
	case "periodic":
		per := base
		per.PeriodicCheckpoint = time.Hour
		variants = []variant{{"checkpoint on vacate only (paper)", base}, {"+ hourly periodic checkpoints (§4)", per}}
	default:
		return fmt.Errorf("unknown ablation %q", which)
	}
	for _, v := range variants {
		rep := simulation.Run(v.cfg)
		fmt.Printf("=== %s ===\n", v.name)
		printScalars(rep)
		if rep.WorkLostHours > 0 {
			fmt.Printf("work redone: %.1f h\n", rep.WorkLostHours)
		}
		fmt.Println()
	}
	return nil
}
