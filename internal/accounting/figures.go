package accounting

import (
	"sort"
	"time"

	"condor/internal/cost"
	"condor/internal/figures"
)

// FigureJob is one job as §3 plots it: its meter's totals plus what only
// the submitter knows.
type FigureJob struct {
	User   string
	Totals JobTotals
	// Demand is the job's service demand, the x axis of Figures 4, 8, 9.
	Demand time.Duration
	// Done marks a completed job; Turnaround is submit to completion.
	Done       bool
	Turnaround time.Duration
	// PlacementBytes is what one placement ships: the job's checkpoint
	// file (a checkpoint's bytes are in Totals.CkptBytes).
	PlacementBytes int64
	// Light marks a job of a light user (Figure 4's second series).
	Light bool
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

// JobFigures is what §3 reports per job against service demand, and the
// scalars drawn from the same jobs.
type JobFigures struct {
	// Table 1.
	Users []UserRow

	// Figure 2: service-demand distribution.
	Demands figures.Histogram

	// Figure 4: mean wait ratio vs service demand.
	WaitAll   *figures.Bins
	WaitLight *figures.Bins

	// Figure 8: checkpoints per hour of service demand.
	CkptRate *figures.Bins

	// Figure 9: leverage vs service demand.
	LeverageBins *figures.Bins

	CompletedJobs      int
	TotalJobs          int
	MeanWaitRatioAll   float64
	MeanWaitRatioLight float64
	OverallLeverage    float64
	ShortJobLeverage   float64 // jobs with demand < 2h
	MeanCkptsPerJob    float64
	// Vacates counts every job's preemptions: each time one left a
	// machine before finishing, checkpointed or killed.
	Vacates int
	// MeanCheckpointMB is the mean checkpoint-file size across all
	// transfers (paper: ≈0.5 MB, hence ≈2.5 s per move at 5 s/MB).
	MeanCheckpointMB float64
	// MeanMoveCostSeconds is the implied mean local cost of one
	// placement or checkpoint under the cost model.
	MeanMoveCostSeconds float64
}

// Figures draws Table 1, Figures 2, 4, 8 and 9 and their scalars from
// jobs, given in submission order. Support is priced by m: the bytes a
// job's placements and checkpoints moved, plus its forwarded calls.
// Every figure that lists or sums users does so in name order, so the
// result does not depend on map iteration.
func Figures(jobs []FigureJob, m cost.Model) JobFigures {
	f := JobFigures{
		WaitAll:      figures.DemandBins(),
		WaitLight:    figures.DemandBins(),
		CkptRate:     figures.DemandBins(),
		LeverageBins: figures.DemandBins(),
	}
	type agg struct {
		jobs, completed int
		demand, waitSum float64
	}
	byUser := map[string]*agg{}
	var (
		totalRemote, totalLocal  time.Duration
		shortRemote, shortLocal  time.Duration
		waitSumAll, waitSumLight float64
		waitNLight               int
		ckpts, moves             uint64
		moveBytes                int64
	)
	for _, j := range jobs {
		f.TotalJobs++
		f.Vacates += int(j.Totals.Preempts)
		a := byUser[j.User]
		if a == nil {
			a = &agg{}
			byUser[j.User] = a
		}
		a.jobs++
		demandH := j.Demand.Hours()
		a.demand += demandH
		f.Demands.Add(demandH)
		if !j.Done {
			continue
		}
		f.CompletedJobs++
		a.completed++
		ckpts += j.Totals.Checkpoints

		wait := j.Turnaround - j.Demand
		if wait < 0 {
			wait = 0
		}
		ratio := float64(wait) / float64(j.Demand)
		a.waitSum += ratio
		waitSumAll += ratio
		if j.Light {
			waitSumLight += ratio
			waitNLight++
			f.WaitLight.Observe(demandH, ratio)
		}
		f.WaitAll.Observe(demandH, ratio)

		// Figure 8: moves per hour of service demand.
		f.CkptRate.Observe(demandH, float64(j.Totals.Checkpoints)/demandH)

		// Figure 9: leverage, with support priced by the §3.1 model.
		transferBytes := j.Totals.CkptBytes + int64(j.Totals.Placements)*j.PlacementBytes
		moves += j.Totals.Placements + j.Totals.Checkpoints
		moveBytes += transferBytes
		support := m.TransferCost(transferBytes) + m.SyscallCost(int64(j.Totals.Syscalls))
		f.LeverageBins.Observe(demandH, min(cost.Leverage(j.Demand, support), leverageCap))
		totalRemote += j.Demand
		totalLocal += support
		if demandH < 2 {
			shortRemote += j.Demand
			shortLocal += support
		}
	}
	if f.CompletedJobs > 0 {
		f.MeanWaitRatioAll = waitSumAll / float64(f.CompletedJobs)
		f.MeanCkptsPerJob = float64(ckpts) / float64(f.CompletedJobs)
	}
	if waitNLight > 0 {
		f.MeanWaitRatioLight = waitSumLight / float64(waitNLight)
	}
	f.OverallLeverage = cost.Leverage(totalRemote, totalLocal)
	f.ShortJobLeverage = cost.Leverage(shortRemote, shortLocal)
	if moves > 0 {
		meanBytes := moveBytes / int64(moves)
		f.MeanCheckpointMB = float64(meanBytes) / (1 << 20)
		f.MeanMoveCostSeconds = m.TransferCost(meanBytes).Seconds()
	}

	names := make([]string, 0, len(byUser))
	for name := range byUser {
		names = append(names, name)
	}
	sort.Strings(names)
	var totalDemand float64
	for _, name := range names {
		totalDemand += byUser[name].demand
	}
	for _, name := range names {
		a := byUser[name]
		row := UserRow{
			User:         name,
			Jobs:         a.jobs,
			PctJobs:      100 * float64(a.jobs) / float64(f.TotalJobs),
			MeanDemandH:  a.demand / float64(a.jobs),
			TotalDemandH: a.demand,
			PctDemand:    100 * a.demand / totalDemand,
			Completed:    a.completed,
		}
		if a.completed > 0 {
			row.MeanWaitRatio = a.waitSum / float64(a.completed)
		}
		f.Users = append(f.Users, row)
	}
	return f
}
