// Command condor-sim reproduces the paper's evaluation section: it runs
// the month-scale simulation of the 23-workstation pool under the
// Table 1 workload and prints every table and figure (Table 1, Figures
// 2–9) plus the §3 scalars. The -experiment flag prints a single
// artifact; -ablation runs the design-choice comparisons from DESIGN.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

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
			"run an ablation: "+strings.Join(simulation.AblationNames(), ", "))
		policyNames = flag.String("policy", "",
			"scheduling policy to run ("+strings.Join(policy.Names(), ", ")+"); a comma-separated list runs an A/B comparison")
		seeds   = flag.Int("seeds", 0, "aggregate over this many seeds (prints mean ± std) instead of one run")
		jsonOut = flag.String("json", "", "also write the full report as JSON to this file")
		csvOut  = flag.String("csv", "", "also write hourly+by-demand CSVs with this path prefix")
		explain = flag.Bool("explain", false,
			"audit every cycle's decision and show where the -policy pair's grants diverge (default pair: updown,fifo)")
	)
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	base := baseConfig(*machines, *days, *seed)
	err := checkFlags(set, *explain, strings.Contains(*policyNames, ","), *seeds > 1, *ablation)
	switch {
	case err != nil: // a refused combination, reported below
	case *explain:
		names := []string{"updown", "fifo"}
		if *policyNames != "" {
			names = strings.Split(*policyNames, ",")
		}
		err = runExplainAB(base, names)
	case strings.Contains(*policyNames, ","):
		err = runPolicyAB(base, strings.Split(*policyNames, ","))
	case *seeds > 1:
		if base, _, err = withPolicy(base, *policyNames); err == nil {
			list := make([]int64, *seeds)
			for i := range list {
				list[i] = *seed + int64(i)
			}
			fmt.Print(simulation.RunMany(base, list).String())
		}
	default:
		err = run(*machines, *days, *seed, *experiment, *ablation, *policyNames, *jsonOut, *csvOut)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// checkFlags refuses a set flag that the chosen mode would not read.
// -explain, an A/B -policy list, -seeds above 1 and -ablation each run
// a mode of their own, and main picks the first of them in this order.
func checkFlags(set map[string]bool, explain, policyAB, manySeeds bool, ablation string) error {
	mode, ignores := "", []string{"seeds", "ablation", "experiment", "json", "csv"}
	switch {
	case explain:
		mode = "explain"
	case policyAB:
		mode = "policy"
	case manySeeds:
		mode, ignores = "seeds", ignores[1:]
	case ablation == "updown" && set["policy"]:
		return errors.New("-ablation updown cannot be combined with -policy: A3 is itself the policy swap")
	case ablation != "":
		mode, ignores = "ablation", ignores[2:]
	default:
		return nil
	}
	for _, f := range ignores {
		if set[f] {
			return fmt.Errorf("-%s cannot be combined with -%s", mode, f)
		}
	}
	return nil
}

// withPolicy returns base under the named registered policy, and the
// name to print for it.
func withPolicy(base simulation.Config, name string) (simulation.Config, string, error) {
	name = strings.TrimSpace(name)
	if _, err := policy.New(name); err != nil {
		return base, "", err
	}
	base.Policy.Name = name
	if name == "" {
		name = policy.DefaultPolicy
	}
	return base, name, nil
}

func baseConfig(machines, days int, seed int64) simulation.Config {
	cfg := simulation.DefaultConfig()
	cfg.Machines = machines
	cfg.Days = days
	cfg.Seed = seed
	return cfg
}

func run(machines, days int, seed int64, experiment, ablation, policyName, jsonOut, csvOut string) error {
	cfg, _, err := withPolicy(baseConfig(machines, days, seed), policyName)
	if err != nil {
		return err
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
	artifacts := map[string]func() string{
		"all": rep.String, "table1": rep.Table1, "fig2": rep.Figure2, "fig3": rep.Figure3,
		"fig4": rep.Figure4, "fig5": rep.Figure5, "fig6": rep.Figure6, "fig7": rep.Figure7,
		"fig8": rep.Figure8, "fig9": rep.Figure9,
	}
	if experiment == "scalars" {
		printScalars(rep)
	} else if artifact, ok := artifacts[experiment]; ok {
		fmt.Print(artifact())
	} else {
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
		cfg, name, err := withPolicy(base, name)
		if err != nil {
			return err
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
		cycles map[uint64]*decision.CycleAudit
	}
	sides := make([]*side, 2)
	// The month is ~21k cycles; retain them all so early divergences
	// (where the policies first split) are still in the ring.
	capacity := (base.Days + 10) * 24 * 60
	for i, name := range names {
		cfg, name, err := withPolicy(base, name)
		if err != nil {
			return err
		}
		cfg.Audit = decision.NewRecorder(capacity)
		simulation.Run(cfg)
		audits := cfg.Audit.Snapshot()
		s := &side{name: name, cycles: make(map[uint64]*decision.CycleAudit, len(audits))}
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

func runAblation(base simulation.Config, name string) error {
	ab, err := simulation.FindAblation(name)
	if err != nil {
		return err
	}
	for i, cfg := range ab.Configs(base) {
		rep := simulation.Run(cfg)
		fmt.Printf("=== %s ===\n", ab.Labels[i])
		printScalars(rep)
		if rep.WorkLostHours > 0 {
			fmt.Printf("work redone: %.1f h\n", rep.WorkLostHours)
		}
		fmt.Println()
	}
	return nil
}
