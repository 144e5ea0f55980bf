package simulation

import (
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/policy"
)

// monthReport runs the default month once per test binary (it takes
// ≈0.5 s; many tests share it).
var (
	monthOnce sync.Once
	monthRep  *Report
)

func month(t *testing.T) *Report {
	t.Helper()
	monthOnce.Do(func() { monthRep = Run(DefaultConfig()) })
	return monthRep
}

// shortConfig is a 6-day run for tests that need their own simulation.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 6
	cfg.DrainDays = 4
	return cfg
}

func TestAllJobsEventuallyComplete(t *testing.T) {
	rep := month(t)
	if rep.TotalJobs != 918 {
		t.Fatalf("total jobs = %d, want 918", rep.TotalJobs)
	}
	if rep.CompletedJobs != rep.TotalJobs {
		t.Fatalf("completed %d of %d — the completion guarantee is broken",
			rep.CompletedJobs, rep.TotalJobs)
	}
}

func TestTable1Reproduced(t *testing.T) {
	rep := month(t)
	if len(rep.Users) != 5 {
		t.Fatalf("users = %d", len(rep.Users))
	}
	wantJobs := map[string]int{"A": 690, "B": 138, "C": 39, "D": 40, "E": 11}
	wantMean := map[string]float64{"A": 6.2, "B": 2.5, "C": 2.6, "D": 0.7, "E": 1.7}
	for _, u := range rep.Users {
		if u.Jobs != wantJobs[u.User] {
			t.Errorf("user %s jobs = %d, want %d", u.User, u.Jobs, wantJobs[u.User])
		}
		if rel(u.MeanDemandH, wantMean[u.User]) > 0.25 {
			t.Errorf("user %s mean demand = %.2f, want ≈%.1f", u.User, u.MeanDemandH, wantMean[u.User])
		}
	}
	// User A dominates: ≈75% of jobs, ≈90% of demand.
	a := rep.Users[0]
	if a.User != "A" || a.PctJobs < 70 || a.PctJobs > 80 {
		t.Errorf("A%%jobs = %.1f, want ≈75", a.PctJobs)
	}
	if a.PctDemand < 85 || a.PctDemand > 93 {
		t.Errorf("A%%demand = %.1f, want ≈90", a.PctDemand)
	}
}

func rel(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

func TestFigure2DemandDistribution(t *testing.T) {
	rep := month(t)
	if mean := rep.Demands.Mean(); mean < 4.2 || mean > 6.2 {
		t.Fatalf("mean demand = %.2f h, want ≈5.2", mean)
	}
	if med := rep.Demands.Median(); med >= 3.0 {
		t.Fatalf("median demand = %.2f h, want < 3", med)
	}
}

func TestFigure3HeavyQueueDominates(t *testing.T) {
	rep := month(t)
	// The heavy user keeps >30 jobs in the system for long stretches;
	// light users stay in single digits.
	hoursAbove30 := 0
	for _, v := range rep.TotalQueue.Values() {
		if v > 30 {
			hoursAbove30++
		}
	}
	if hoursAbove30 < 48 {
		t.Fatalf("queue above 30 for only %d hours; paper shows long periods", hoursAbove30)
	}
	for i, v := range rep.LightQueue.Values() {
		if v > 15 {
			t.Fatalf("light queue spiked to %.0f at hour %d", v, i)
		}
	}
	if rep.LightQueue.Mean() >= rep.TotalQueue.Mean()/3 {
		t.Fatalf("light mean %.1f not clearly below total mean %.1f",
			rep.LightQueue.Mean(), rep.TotalQueue.Mean())
	}
}

func TestFigure4FairnessProtectsLightUsers(t *testing.T) {
	rep := month(t)
	// "in most cases light users did not wait at all" while the heavy
	// user dominates the overall average.
	if rep.MeanWaitRatioLight > 0.5 {
		t.Fatalf("light users' mean wait ratio = %.2f, want near 0", rep.MeanWaitRatioLight)
	}
	if rep.MeanWaitRatioAll < 4*rep.MeanWaitRatioLight {
		t.Fatalf("all %.2f vs light %.2f: heavy user does not dominate the average",
			rep.MeanWaitRatioAll, rep.MeanWaitRatioLight)
	}
	// Per-bin: the light curve sits below the all curve wherever both
	// have data.
	for i := 0; i < rep.WaitAll.Len(); i++ {
		if rep.WaitLight.Count(i) == 0 || rep.WaitAll.Count(i) == 0 {
			continue
		}
		if rep.WaitLight.Mean(i) > rep.WaitAll.Mean(i)+0.01 {
			t.Fatalf("bin %s: light %.2f above all %.2f",
				rep.WaitAll.Label(i), rep.WaitLight.Mean(i), rep.WaitAll.Mean(i))
		}
	}
}

func TestFigure5UtilizationScalars(t *testing.T) {
	rep := month(t)
	if rep.TotalMachineHours != 23*30*24 {
		t.Fatalf("machine hours = %.0f", rep.TotalMachineHours)
	}
	availFrac := rep.AvailableHours / rep.TotalMachineHours
	if availFrac < 0.68 || availFrac > 0.82 {
		t.Fatalf("availability = %.1f%%, want ≈75%%", 100*availFrac)
	}
	if rep.LocalUtilMean < 0.18 || rep.LocalUtilMean > 0.32 {
		t.Fatalf("local utilization = %.1f%%, want ≈25%%", 100*rep.LocalUtilMean)
	}
	// ≈200 machine-days consumed by Condor within the window.
	if rep.ConsumedHours < 3200 || rep.ConsumedHours > 5500 {
		t.Fatalf("consumed = %.0f h, want ≈4771 (order 200 machine-days)", rep.ConsumedHours)
	}
	if rep.ConsumedHours > rep.AvailableHours {
		t.Fatal("consumed more than was available")
	}
}

func TestFigure5SystemAboveLocal(t *testing.T) {
	rep := month(t)
	sys, local := rep.SystemUtil.Values(), rep.LocalUtil.Values()
	higher := 0
	for i := range sys {
		if sys[i] >= local[i]-1e-9 {
			higher++
		}
	}
	if frac := float64(higher) / float64(len(sys)); frac < 0.999 {
		t.Fatalf("system utilization below local in %.1f%% of hours", 100*(1-frac))
	}
	// Condor should push the system to (near) full utilization for long
	// stretches ("often all workstations were utilized").
	full := 0
	for _, v := range sys {
		if v > 0.95 {
			full++
		}
	}
	if full < 24 {
		t.Fatalf("system near-fully utilized for only %d hours", full)
	}
}

func TestFigure6DiurnalLocalActivity(t *testing.T) {
	rep := month(t)
	from, to := rep.weekWindow()
	week := rep.LocalUtil.Slice(from, to)
	if len(week) != 5*24 {
		t.Fatalf("week slice = %d hours", len(week))
	}
	var afternoon, night float64
	var an, nn int
	for day := 0; day < 5; day++ {
		for h := 14; h < 18; h++ {
			afternoon += week[day*24+h]
			an++
		}
		for h := 1; h < 6; h++ {
			night += week[day*24+h]
			nn++
		}
	}
	if afternoon/float64(an) <= night/float64(nn) {
		t.Fatalf("afternoon local util %.2f not above night %.2f",
			afternoon/float64(an), night/float64(nn))
	}
}

func TestFigure8CheckpointRateShape(t *testing.T) {
	rep := month(t)
	// Short jobs are checkpointed more often per CPU-hour; beyond that
	// the rate is comparatively steady (long jobs eventually land on
	// stable machines).
	shortRate := rep.CkptRate.Mean(0)
	var longSum float64
	var longN int
	for i := 3; i < rep.CkptRate.Len(); i++ {
		if rep.CkptRate.Count(i) > 0 {
			longSum += rep.CkptRate.Mean(i)
			longN++
		}
	}
	if longN == 0 {
		t.Fatal("no long-job bins populated")
	}
	longRate := longSum / float64(longN)
	if shortRate <= longRate*1.5 {
		t.Fatalf("short-job ckpt rate %.2f not clearly above long-job %.2f",
			shortRate, longRate)
	}
	if longRate <= 0 || longRate > 2.0 {
		t.Fatalf("long-job rate %.2f implausible", longRate)
	}
}

func TestFigure9Leverage(t *testing.T) {
	rep := month(t)
	// Paper: overall ≈1300; short jobs ≈600; longer jobs higher.
	if rep.OverallLeverage < 700 || rep.OverallLeverage > 2600 {
		t.Fatalf("overall leverage = %.0f, want order 1300", rep.OverallLeverage)
	}
	if rep.ShortJobLeverage < 250 || rep.ShortJobLeverage > 1300 {
		t.Fatalf("short-job leverage = %.0f, want order 600", rep.ShortJobLeverage)
	}
	if rep.ShortJobLeverage >= rep.OverallLeverage {
		t.Fatal("short jobs must have lower leverage than the overall")
	}
	// Leverage rises with demand across the low bins.
	if rep.LeverageBins.Mean(0) >= rep.LeverageBins.Mean(4) {
		t.Fatalf("leverage bin 0 (%.0f) not below bin 4 (%.0f)",
			rep.LeverageBins.Mean(0), rep.LeverageBins.Mean(4))
	}
}

func TestPreemptionsHappenButAreBounded(t *testing.T) {
	rep := month(t)
	if rep.Preempts == 0 {
		t.Fatal("no Up-Down preemptions in a contended month — implausible")
	}
	if rep.Vacates == 0 {
		t.Fatal("no owner-return vacates — availability model not engaged")
	}
	if rep.Preempts > rep.Vacates {
		t.Fatalf("preempts %d exceed owner vacates %d; owner activity should dominate",
			rep.Preempts, rep.Vacates)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := shortConfig()
	a, b := Run(cfg), Run(cfg)
	if a.ConsumedHours != b.ConsumedHours || a.Preempts != b.Preempts ||
		a.Vacates != b.Vacates || a.CompletedJobs != b.CompletedJobs {
		t.Fatalf("same seed diverged: %+v vs %+v",
			[4]float64{a.ConsumedHours, float64(a.Preempts), float64(a.Vacates), float64(a.CompletedJobs)},
			[4]float64{b.ConsumedHours, float64(b.Preempts), float64(b.Vacates), float64(b.CompletedJobs)})
	}
	c := cfg
	c.Seed = cfg.Seed + 1
	if Run(c).ConsumedHours == a.ConsumedHours {
		t.Fatal("different seeds produced identical consumption — RNG not wired")
	}
}

// TestPolicyABRegression pins the paper-shaped orderings across the
// registered policies on the same deterministic month-scale seed, so a
// future edit to any pipeline stage cannot silently regress the
// reproduction: every policy still completes the whole workload with
// utilization inside the committed Figure 5 envelope, Up-Down's
// leverage stays finite (order 10^3, Figure 9), and Up-Down remains
// fairer to light users than FIFO.
func TestPolicyABRegression(t *testing.T) {
	updownRep := month(t) // DefaultConfig = the updown policy
	runPolicy := func(name string) *Report {
		cfg := DefaultConfig()
		cfg.Policy.Name = name
		return Run(cfg)
	}
	fifoRep := runPolicy("fifo")
	busiestRep := runPolicy("busiest-first")

	for _, pr := range []struct {
		name string
		rep  *Report
	}{{"updown", updownRep}, {"fifo", fifoRep}, {"busiest-first", busiestRep}} {
		if pr.rep.CompletedJobs != pr.rep.TotalJobs {
			t.Errorf("%s: completed %d of %d jobs — the completion guarantee broke",
				pr.name, pr.rep.CompletedJobs, pr.rep.TotalJobs)
		}
		// Availability is workload- and fleet-driven, not policy-driven;
		// any policy drifting it means the substrate changed.
		availFrac := pr.rep.AvailableHours / pr.rep.TotalMachineHours
		if availFrac < 0.68 || availFrac > 0.82 {
			t.Errorf("%s: available fraction = %.2f, want the Figure 5 band 0.68–0.82",
				pr.name, availFrac)
		}
		// The same jobs complete, so consumed capacity must stay inside
		// the committed Figure 5 envelope whatever the ordering.
		if pr.rep.ConsumedHours < 3200 || pr.rep.ConsumedHours > 5500 {
			t.Errorf("%s: consumed hours = %.0f, want the Figure 5 band 3200–5500",
				pr.name, pr.rep.ConsumedHours)
		}
	}
	// Up-Down's leverage is finite and paper-sized (Figure 9: order
	// 10^3) — an unfair or broken ranker shows up here first, as either
	// ~0 (no remote work) or an explosion (support time collapsed).
	if updownRep.OverallLeverage < 700 || updownRep.OverallLeverage > 2600 {
		t.Errorf("updown overall leverage = %.0f, want order 1300 (Figure 9)",
			updownRep.OverallLeverage)
	}
	// Fairness ordering: Up-Down serves light users better than FIFO,
	// where the heavy user's early arrival owns the grant order (§2.4).
	if updownRep.MeanWaitRatioLight >= fifoRep.MeanWaitRatioLight {
		t.Errorf("updown light-user wait ratio %.2f not better than FIFO's %.2f",
			updownRep.MeanWaitRatioLight, fifoRep.MeanWaitRatioLight)
	}
}

func TestFIFOAblationHurtsLightUsers(t *testing.T) {
	base := shortConfig()
	fair := Run(base)
	fifoCfg := base
	fifoCfg.Policy.Name = "fifo"
	fifo := Run(fifoCfg)
	// Under FIFO the heavy user's home station (registered first) owns
	// the grant order; light users wait longer than under Up-Down.
	if fifo.MeanWaitRatioLight <= fair.MeanWaitRatioLight {
		t.Fatalf("FIFO light wait %.2f not worse than Up-Down %.2f",
			fifo.MeanWaitRatioLight, fair.MeanWaitRatioLight)
	}
}

func TestKillImmediatelyAblation(t *testing.T) {
	base := shortConfig()
	suspend := Run(base)
	killCfg := base
	killCfg.Vacate = VacateKillImmediately
	killCfg.PeriodicCheckpoint = 30 * time.Minute
	// Redone work slows the tail down; allow a longer drain.
	killCfg.DrainDays = 15
	kill := Run(killCfg)
	if kill.WorkLostHours <= 0 {
		t.Fatal("kill-immediately lost no work — ablation not engaged")
	}
	if suspend.WorkLostHours != 0 {
		t.Fatalf("suspend-first lost %.1f h — it should lose nothing", suspend.WorkLostHours)
	}
	if kill.CompletedJobs != kill.TotalJobs {
		t.Fatalf("kill policy completed %d/%d", kill.CompletedJobs, kill.TotalJobs)
	}
}

func TestHistoryPlacementReducesPreemptions(t *testing.T) {
	base := shortConfig()
	first := Run(base)
	histCfg := base
	histCfg.Policy = policy.DefaultConfig()
	histCfg.Policy.Placement = policy.PlaceHistory
	hist := Run(histCfg)
	// §5.1: choosing machines by availability history should reduce the
	// owner-return vacates long jobs suffer. Allow equality noise but
	// require it not be dramatically worse.
	if float64(hist.Vacates) > float64(first.Vacates)*1.15 {
		t.Fatalf("history placement vacates %d vs first-fit %d — should not be worse",
			hist.Vacates, first.Vacates)
	}
}

func TestReportRenderers(t *testing.T) {
	rep := month(t)
	out := rep.String()
	for _, want := range []string{
		"Table 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"leverage", "available",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestConfigSanitizeDefaults(t *testing.T) {
	rep := Run(Config{Days: 2, DrainDays: 2, Machines: 5})
	if rep.TotalJobs == 0 {
		t.Fatal("zero-config run produced no jobs")
	}
	if rep.TotalMachineHours != 5*2*24 {
		t.Fatalf("machine hours = %.0f", rep.TotalMachineHours)
	}
}

func TestMachineCrashesDoNotLoseJobs(t *testing.T) {
	cfg := shortConfig()
	cfg.CrashMTBF = 30 * time.Hour // several crashes across 23 machines
	cfg.CrashRepair = 2 * time.Hour
	cfg.DrainDays = 12
	rep := Run(cfg)
	if rep.Crashes == 0 {
		t.Fatal("no crashes injected — test premise broken")
	}
	if rep.CompletedJobs != rep.TotalJobs {
		t.Fatalf("crashes broke the completion guarantee: %d/%d",
			rep.CompletedJobs, rep.TotalJobs)
	}
	if rep.WorkLostHours <= 0 {
		t.Fatal("crashes lost no work — rollback to last checkpoint not engaged")
	}
	if rep.DownHours <= 0 {
		t.Fatal("down time not accounted")
	}
	// Availability must shrink by the down time.
	noCrash := Run(shortConfig())
	if rep.AvailableHours >= noCrash.AvailableHours {
		t.Fatalf("availability with crashes (%.0f) not below baseline (%.0f)",
			rep.AvailableHours, noCrash.AvailableHours)
	}
}

func TestCrashWithPeriodicCheckpointLosesLess(t *testing.T) {
	base := shortConfig()
	base.CrashMTBF = 30 * time.Hour
	base.CrashRepair = 2 * time.Hour
	base.DrainDays = 12
	bare := Run(base)
	withCkpt := base
	withCkpt.PeriodicCheckpoint = 30 * time.Minute
	per := Run(withCkpt)
	if per.WorkLostHours >= bare.WorkLostHours {
		t.Fatalf("periodic checkpoints did not reduce crash losses: %.1f vs %.1f",
			per.WorkLostHours, bare.WorkLostHours)
	}
}

func TestScalesToHundredWorkstations(t *testing.T) {
	// §3.1: "a coordinator can manage as many as 100 workstations". The
	// same workload spread over a 100-machine pool must complete sooner
	// (less waiting) and still be fair.
	cfg := shortConfig()
	cfg.Machines = 100
	rep := Run(cfg)
	if rep.CompletedJobs != rep.TotalJobs {
		t.Fatalf("completed %d/%d at 100 machines", rep.CompletedJobs, rep.TotalJobs)
	}
	small := Run(shortConfig())
	if rep.MeanWaitRatioAll >= small.MeanWaitRatioAll {
		t.Fatalf("more machines did not reduce waiting: %.2f vs %.2f",
			rep.MeanWaitRatioAll, small.MeanWaitRatioAll)
	}
	if rep.MeanWaitRatioLight > 1.0 {
		t.Fatalf("light users wait %.2f at 100 machines", rep.MeanWaitRatioLight)
	}
}

func TestCheckpointFileSizeMatchesPaper(t *testing.T) {
	rep := month(t)
	// Paper §3.1: mean checkpoint ≈½ MB, so placement/checkpoint costs
	// ≈2.5 s of local capacity per move.
	if rep.MeanCheckpointMB < 0.35 || rep.MeanCheckpointMB > 0.7 {
		t.Fatalf("mean checkpoint = %.2f MB, want ≈0.5", rep.MeanCheckpointMB)
	}
	if rep.MeanMoveCostSeconds < 1.7 || rep.MeanMoveCostSeconds > 3.5 {
		t.Fatalf("mean move cost = %.1f s, want ≈2.5", rep.MeanMoveCostSeconds)
	}
}
