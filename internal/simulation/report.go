package simulation

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"condor/internal/cost"
	"condor/internal/figures"
)

// MachineRow profiles one workstation's month — the per-machine view of
// availability that the paper's companion study (ref [1], "Profiling
// Workstations' Available Capacity for Remote Execution") reports.
type MachineRow struct {
	Name          string  `json:"name"`
	Class         string  `json:"class"`
	OwnerPct      float64 `json:"ownerPct"`
	CondorPct     float64 `json:"condorPct"`
	SuspendPct    float64 `json:"suspendPct"`
	IdlePct       float64 `json:"idlePct"`
	DownPct       float64 `json:"downPct"`
	IdleIntervals int     `json:"idleIntervals"`
	AvgIdleHours  float64 `json:"avgIdleHours"`
}

// UserRow is one Table 1 row.
type UserRow struct {
	User          string
	Jobs          int
	PctJobs       float64
	MeanDemandH   float64
	TotalDemandH  float64
	PctDemand     float64
	Completed     int
	MeanWaitRatio float64
}

// Report is everything the paper's evaluation section reports, computed
// from one simulation run.
type Report struct {
	Start time.Time
	End   time.Time

	// Table 1.
	Users []UserRow

	// Per-machine availability profile (the ref [1] view).
	Machines []MachineRow

	// Figure 2: service-demand distribution.
	Demands figures.Histogram

	// Figures 3 and 7: hourly queue lengths.
	TotalQueue *figures.HourlySeries
	LightQueue *figures.HourlySeries

	// Figures 5 and 6: hourly utilizations (fractions of the pool).
	LocalUtil  *figures.HourlySeries
	SystemUtil *figures.HourlySeries

	// Figure 4: mean wait ratio vs service demand.
	WaitAll   *figures.Bins
	WaitLight *figures.Bins

	// Figure 8: checkpoints per remote-CPU-hour vs service demand.
	CkptRate *figures.Bins

	// Figure 9: leverage vs service demand.
	LeverageBins *figures.Bins

	// §3 scalars.
	TotalMachineHours  float64
	AvailableHours     float64
	ConsumedHours      float64
	LocalUtilMean      float64
	CompletedJobs      int
	TotalJobs          int
	MeanWaitRatioAll   float64
	MeanWaitRatioLight float64
	OverallLeverage    float64
	ShortJobLeverage   float64 // jobs with demand < 2h
	MeanCkptsPerJob    float64
	Preempts           int
	Vacates            int
	Crashes            int
	WorkLostHours      float64
	DownHours          float64
	// PeakStationBurst is the most placements any single station made in
	// one poll cycle — the §4 local-impact quantity pacing bounds at 1.
	PeakStationBurst int
	// MeanCheckpointMB is the mean checkpoint-file size across all
	// transfers (paper: ≈0.5 MB, hence ≈2.5 s per move at 5 s/MB).
	MeanCheckpointMB float64
	// MeanMoveCostSeconds is the implied mean local cost of one
	// placement or checkpoint under the cost model.
	MeanMoveCostSeconds float64

	// run accumulators (filled during simulation).
	preempts         int
	vacates          int
	crashes          int
	workLost         time.Duration
	consumedInWindow time.Duration
	peakStationBurst int
	transferMoves    int
	transferBytes    int64
}

// costModel prices placements, checkpoints and system calls for the
// leverage figures: the paper's §3.1 measurements.
var costModel = cost.Paper()

func newReport(start, end time.Time) *Report {
	hours := int(end.Sub(start) / time.Hour)
	return &Report{
		Start:        start,
		End:          end,
		TotalQueue:   figures.NewHourlySeries(start, hours, time.Hour),
		LightQueue:   figures.NewHourlySeries(start, hours, time.Hour),
		LocalUtil:    figures.NewHourlySeries(start, hours, time.Hour),
		SystemUtil:   figures.NewHourlySeries(start, hours, time.Hour),
		WaitAll:      figures.DemandBins(),
		WaitLight:    figures.DemandBins(),
		CkptRate:     figures.DemandBins(),
		LeverageBins: figures.DemandBins(),
	}
}

// recordRemoteCPU accumulates remote CPU consumed between from and to,
// clipped to the observation window.
func (r *Report) recordRemoteCPU(from, to, windowEnd time.Time) {
	if to.After(windowEnd) {
		to = windowEnd
	}
	if d := to.Sub(from); d > 0 {
		r.consumedInWindow += d
	}
}

// leverageCap renders infinite leverage (zero local support) finitely.
const leverageCap = 1e6

// collect computes the final statistics from the simulator state.
func (r *Report) collect(s *simulator) {
	r.Preempts = r.preempts
	r.Vacates = r.vacates
	r.Crashes = r.crashes
	r.WorkLostHours = r.workLost.Hours()
	r.PeakStationBurst = r.peakStationBurst

	// Machine-side accounting.
	window := s.end.Sub(windowStart)
	r.TotalMachineHours = window.Hours() * float64(len(s.machines))
	var ownerHours, downHours float64
	for _, m := range s.machines {
		ownerHours += m.ownerTime.Hours()
		downHours += m.downTime.Hours()
		w := window.Hours()
		row := MachineRow{
			Name:          m.name,
			Class:         m.class.Name,
			OwnerPct:      100 * m.ownerTime.Hours() / w,
			CondorPct:     100 * m.claimedTime.Hours() / w,
			SuspendPct:    100 * m.suspendTime.Hours() / w,
			DownPct:       100 * m.downTime.Hours() / w,
			IdleIntervals: m.idleIntervals,
			AvgIdleHours:  m.avgIdle().Hours(),
		}
		row.IdlePct = 100 - row.OwnerPct - row.CondorPct - row.SuspendPct - row.DownPct
		if row.IdlePct < 0 {
			row.IdlePct = 0
		}
		r.Machines = append(r.Machines, row)
	}
	r.DownHours = downHours
	r.AvailableHours = r.TotalMachineHours - ownerHours - downHours
	r.ConsumedHours = r.consumedInWindow.Hours()
	r.LocalUtilMean = ownerHours / r.TotalMachineHours

	// Per-user rows and per-job statistics.
	type agg struct {
		jobs      int
		demand    float64
		completed int
		waitSum   float64
	}
	byUser := map[string]*agg{}
	var (
		totalRemote  time.Duration
		totalLocal   time.Duration
		shortRemote  time.Duration
		shortLocal   time.Duration
		waitSumAll   float64
		waitNAll     int
		waitSumLight float64
		waitNLight   int
		ckptTotal    int
	)
	for _, j := range s.jobs {
		r.TotalJobs++
		a := byUser[j.wj.User]
		if a == nil {
			a = &agg{}
			byUser[j.wj.User] = a
		}
		a.jobs++
		demandH := j.wj.Demand.Hours()
		a.demand += demandH
		r.Demands.Add(demandH)
		if j.state != jobDone {
			continue
		}
		r.CompletedJobs++
		a.completed++
		ckptTotal += j.checkpoints

		wait := j.doneAt.Sub(j.submitted) - j.wj.Demand
		if wait < 0 {
			wait = 0
		}
		ratio := float64(wait) / float64(j.wj.Demand)
		a.waitSum += ratio
		waitSumAll += ratio
		waitNAll++
		heavy := s.userOf(j.wj.User) != nil && s.userOf(j.wj.User).profile.Heavy()
		if !heavy {
			waitSumLight += ratio
			waitNLight++
			r.WaitLight.Observe(demandH, ratio)
		}
		r.WaitAll.Observe(demandH, ratio)

		// Figure 8: moves per hour of service demand.
		r.CkptRate.Observe(demandH, float64(j.checkpoints)/demandH)

		// §3.1 transfer statistics.
		moves := j.placements + j.checkpoints
		if moves > 0 {
			r.transferMoves += moves
			r.transferBytes += j.transferBytes
		}

		// Figure 9: leverage.
		support := costModel.LocalSupport(cost.JobSupport{
			Placements:    j.placements,
			Checkpoints:   j.checkpoints,
			TransferBytes: j.transferBytes,
			Syscalls:      j.syscalls,
		})
		lev := cost.Leverage(j.wj.Demand, support)
		if lev > leverageCap {
			lev = leverageCap
		}
		r.LeverageBins.Observe(demandH, lev)
		totalRemote += j.wj.Demand
		totalLocal += support
		if demandH < 2 {
			shortRemote += j.wj.Demand
			shortLocal += support
		}
	}
	if waitNAll > 0 {
		r.MeanWaitRatioAll = waitSumAll / float64(waitNAll)
	}
	if waitNLight > 0 {
		r.MeanWaitRatioLight = waitSumLight / float64(waitNLight)
	}
	if r.CompletedJobs > 0 {
		r.MeanCkptsPerJob = float64(ckptTotal) / float64(r.CompletedJobs)
	}
	r.OverallLeverage = cost.Leverage(totalRemote, totalLocal)
	r.ShortJobLeverage = cost.Leverage(shortRemote, shortLocal)
	if r.transferMoves > 0 {
		meanBytes := r.transferBytes / int64(r.transferMoves)
		r.MeanCheckpointMB = float64(meanBytes) / (1 << 20)
		r.MeanMoveCostSeconds = costModel.TransferCost(meanBytes).Seconds()
	}

	var totalDemand float64
	for _, a := range byUser {
		totalDemand += a.demand
	}
	names := make([]string, 0, len(byUser))
	for name := range byUser {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := byUser[name]
		row := UserRow{
			User:         name,
			Jobs:         a.jobs,
			PctJobs:      100 * float64(a.jobs) / float64(r.TotalJobs),
			MeanDemandH:  a.demand / float64(a.jobs),
			TotalDemandH: a.demand,
			PctDemand:    100 * a.demand / totalDemand,
			Completed:    a.completed,
		}
		if a.completed > 0 {
			row.MeanWaitRatio = a.waitSum / float64(a.completed)
		}
		r.Users = append(r.Users, row)
	}
}

// --- rendering ----------------------------------------------------------

// Table1 renders the user-profile table.
func (r *Report) Table1() string {
	rows := make([][]string, 0, len(r.Users)+1)
	var jobs int
	var demand float64
	for _, u := range r.Users {
		jobs += u.Jobs
		demand += u.TotalDemandH
		rows = append(rows, []string{
			u.User,
			fmt.Sprintf("%d", u.Jobs),
			fmt.Sprintf("%.0f", u.PctJobs),
			fmt.Sprintf("%.1f", u.MeanDemandH),
			fmt.Sprintf("%.0f", u.TotalDemandH),
			fmt.Sprintf("%.1f", u.PctDemand),
		})
	}
	rows = append(rows, []string{
		"Total",
		fmt.Sprintf("%d", jobs), "100",
		fmt.Sprintf("%.1f", demand/float64(jobs)),
		fmt.Sprintf("%.0f", demand), "100",
	})
	return "Table 1: Profile of User Service Requests\n" + figures.Table(
		[]string{"User", "Jobs", "%Jobs", "AvgDemand(h)", "Total(h)", "%Demand"}, rows)
}

// Figure2 renders the cumulative service-demand distribution.
func (r *Report) Figure2() string {
	points := []float64{1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24}
	cdf := r.Demands.CDF(points)
	rows := make([][]string, len(points))
	for i := range points {
		rows[i] = []string{
			fmt.Sprintf("<= %gh", points[i]),
			fmt.Sprintf("%.1f%%", 100*cdf[i]),
		}
	}
	summary := fmt.Sprintf("mean %.1fh, median %.1fh, %d jobs\n",
		r.Demands.Mean(), r.Demands.Median(), r.Demands.N())
	return "Figure 2: Profile of Service Demand (CDF)\n" + summary +
		figures.Table([]string{"Demand", "CumFreq"}, rows)
}

// Figure3 renders the month-long hourly queue lengths.
func (r *Report) Figure3() string {
	var b strings.Builder
	b.WriteString("Figure 3: Queue Length (hourly, month)\n")
	b.WriteString(figures.Chart("total queue", r.TotalQueue.Values(), 72, 10))
	b.WriteString(figures.Chart("light users' queue", r.LightQueue.Values(), 72, 10))
	fmt.Fprintf(&b, "total mean %.1f, light mean %.1f\n",
		r.TotalQueue.Mean(), r.LightQueue.Mean())
	return b.String()
}

// Figure4 renders mean wait ratio vs service demand.
func (r *Report) Figure4() string {
	rows := make([][]string, 0, r.WaitAll.Len())
	for i := 0; i < r.WaitAll.Len(); i++ {
		if r.WaitAll.Count(i) == 0 {
			continue
		}
		rows = append(rows, []string{
			r.WaitAll.Label(i),
			fmt.Sprintf("%.2f", r.WaitAll.Mean(i)),
			fmt.Sprintf("%.2f", r.WaitLight.Mean(i)),
			fmt.Sprintf("%d", r.WaitAll.Count(i)),
		})
	}
	summary := fmt.Sprintf("mean wait ratio: all %.2f, light users %.2f\n",
		r.MeanWaitRatioAll, r.MeanWaitRatioLight)
	return "Figure 4: Average Wait Ratio vs Service Demand\n" + summary +
		figures.Table([]string{"Demand", "All", "Light", "Jobs"}, rows)
}

// Figure5 renders the month-long utilization series.
func (r *Report) Figure5() string {
	var b strings.Builder
	b.WriteString("Figure 5: Utilization of Remote Resources (month)\n")
	b.WriteString(figures.Chart("system utilization", r.SystemUtil.Values(), 72, 10))
	b.WriteString(figures.Chart("local utilization", r.LocalUtil.Values(), 72, 10))
	fmt.Fprintf(&b, "available %.0f h of %.0f machine-hours (%.0f%%); consumed by Condor %.0f h\n",
		r.AvailableHours, r.TotalMachineHours,
		100*r.AvailableHours/r.TotalMachineHours, r.ConsumedHours)
	fmt.Fprintf(&b, "mean local utilization %.0f%%\n", 100*r.LocalUtilMean)
	return b.String()
}

// weekWindow returns the first full Monday–Friday span of the window.
func (r *Report) weekWindow() (time.Time, time.Time) {
	t := r.Start
	for t.Weekday() != time.Monday {
		t = t.Add(24 * time.Hour)
	}
	return t, t.Add(5 * 24 * time.Hour)
}

// Figure6 renders one work week of utilization.
func (r *Report) Figure6() string {
	from, to := r.weekWindow()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: Utilization for One Week (%s – %s)\n",
		from.Format("Mon Jan 2"), to.Format("Mon Jan 2"))
	b.WriteString(figures.Chart("system utilization", r.SystemUtil.Slice(from, to), 72, 10))
	b.WriteString(figures.Chart("local utilization", r.LocalUtil.Slice(from, to), 72, 10))
	return b.String()
}

// Figure7 renders one work week of queue lengths.
func (r *Report) Figure7() string {
	from, to := r.weekWindow()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Queue Lengths for One Week (%s – %s)\n",
		from.Format("Mon Jan 2"), to.Format("Mon Jan 2"))
	b.WriteString(figures.Chart("total queue", r.TotalQueue.Slice(from, to), 72, 10))
	b.WriteString(figures.Chart("light users' queue", r.LightQueue.Slice(from, to), 72, 10))
	return b.String()
}

// Figure8 renders the checkpoint rate vs service demand.
func (r *Report) Figure8() string {
	rows := make([][]string, 0, r.CkptRate.Len())
	for i := 0; i < r.CkptRate.Len(); i++ {
		if r.CkptRate.Count(i) == 0 {
			continue
		}
		rows = append(rows, []string{
			r.CkptRate.Label(i),
			fmt.Sprintf("%.2f", r.CkptRate.Mean(i)),
			fmt.Sprintf("%d", r.CkptRate.Count(i)),
		})
	}
	summary := fmt.Sprintf(
		"mean checkpoints per job %.2f; vacates %d; preemptions %d\n"+
			"mean checkpoint file %.2f MB -> %.1f s of local capacity per move (paper: 0.5 MB, 2.5 s)\n",
		r.MeanCkptsPerJob, r.Vacates, r.Preempts,
		r.MeanCheckpointMB, r.MeanMoveCostSeconds)
	return "Figure 8: Rate of Checkpointing (moves per CPU-hour of demand)\n" + summary +
		figures.Table([]string{"Demand", "Ckpts/h", "Jobs"}, rows)
}

// Figure9 renders leverage vs service demand.
func (r *Report) Figure9() string {
	rows := make([][]string, 0, r.LeverageBins.Len())
	for i := 0; i < r.LeverageBins.Len(); i++ {
		if r.LeverageBins.Count(i) == 0 {
			continue
		}
		rows = append(rows, []string{
			r.LeverageBins.Label(i),
			fmt.Sprintf("%.0f", r.LeverageBins.Mean(i)),
			fmt.Sprintf("%d", r.LeverageBins.Count(i)),
		})
	}
	summary := fmt.Sprintf("overall leverage %.0f (1 min local buys %.1f h remote); short jobs (<2h) %.0f\n",
		r.OverallLeverage, r.OverallLeverage/60, r.ShortJobLeverage)
	return "Figure 9: Remote Execution Leverage vs Service Demand\n" + summary +
		figures.Table([]string{"Demand", "Leverage", "Jobs"}, rows)
}

// MachineProfile renders the per-machine availability table.
func (r *Report) MachineProfile() string {
	rows := make([][]string, 0, len(r.Machines))
	for _, m := range r.Machines {
		rows = append(rows, []string{
			m.Name, m.Class,
			fmt.Sprintf("%.0f", m.OwnerPct),
			fmt.Sprintf("%.0f", m.CondorPct),
			fmt.Sprintf("%.0f", m.IdlePct),
			fmt.Sprintf("%d", m.IdleIntervals),
			fmt.Sprintf("%.1f", m.AvgIdleHours),
		})
	}
	return "Machine availability profile (per ref [1])\n" + figures.Table(
		[]string{"Machine", "Class", "Owner%", "Condor%", "Unused%", "IdleIntervals", "AvgIdle(h)"},
		rows)
}

// String renders the full evaluation.
func (r *Report) String() string {
	sections := []string{
		r.Table1(), r.Figure2(), r.Figure3(), r.Figure4(), r.Figure5(),
		r.Figure6(), r.Figure7(), r.Figure8(), r.Figure9(),
		r.MachineProfile(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Condor evaluation reproduction — %s to %s, %d jobs (%d completed)\n\n",
		r.Start.Format("2006-01-02"), r.End.Format("2006-01-02"),
		r.TotalJobs, r.CompletedJobs)
	for _, s := range sections {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}
