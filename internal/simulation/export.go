package simulation

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"condor/internal/accounting"
)

// exportedReport is the JSON shape of a Report: everything a plotting
// script needs to redraw the paper's figures.
type exportedReport struct {
	Start string               `json:"start"`
	End   string               `json:"end"`
	Users []accounting.UserRow `json:"users"`

	DemandCDF struct {
		PointsHours []float64 `json:"pointsHours"`
		CumFreq     []float64 `json:"cumFreq"`
		MeanHours   float64   `json:"meanHours"`
		MedianHours float64   `json:"medianHours"`
	} `json:"demandCdf"`

	Hourly struct {
		TotalQueue []float64 `json:"totalQueue"`
		LightQueue []float64 `json:"lightQueue"`
		LocalUtil  []float64 `json:"localUtil"`
		SystemUtil []float64 `json:"systemUtil"`
	} `json:"hourly"`

	ByDemand struct {
		Labels    []string  `json:"labels"`
		WaitAll   []float64 `json:"waitAll"`
		WaitLight []float64 `json:"waitLight"`
		CkptRate  []float64 `json:"ckptRate"`
		Leverage  []float64 `json:"leverage"`
		Jobs      []int64   `json:"jobs"`
	} `json:"byDemand"`

	Scalars struct {
		TotalMachineHours  float64 `json:"totalMachineHours"`
		AvailableHours     float64 `json:"availableHours"`
		ConsumedHours      float64 `json:"consumedHours"`
		LocalUtilMean      float64 `json:"localUtilMean"`
		CompletedJobs      int     `json:"completedJobs"`
		TotalJobs          int     `json:"totalJobs"`
		MeanWaitRatioAll   float64 `json:"meanWaitRatioAll"`
		MeanWaitRatioLight float64 `json:"meanWaitRatioLight"`
		OverallLeverage    float64 `json:"overallLeverage"`
		ShortJobLeverage   float64 `json:"shortJobLeverage"`
		MeanCkptsPerJob    float64 `json:"meanCkptsPerJob"`
		Preempts           int     `json:"preempts"`
		Vacates            int     `json:"vacates"`
		Crashes            int     `json:"crashes"`
		WorkLostHours      float64 `json:"workLostHours"`
		DownHours          float64 `json:"downHours"`
	} `json:"scalars"`
}

// cdfPoints is the demand grid exported for Figure 2.
var cdfPoints = []float64{0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 36, 48}

// WriteJSON serializes the full report for external plotting tools.
func (r *Report) WriteJSON(w io.Writer) error {
	var out exportedReport
	out.Start = r.Start.Format("2006-01-02T15:04:05Z07:00")
	out.End = r.End.Format("2006-01-02T15:04:05Z07:00")
	out.Users = r.Users

	out.DemandCDF.PointsHours = cdfPoints
	out.DemandCDF.CumFreq = r.Demands.CDF(cdfPoints)
	out.DemandCDF.MeanHours = r.Demands.Mean()
	out.DemandCDF.MedianHours = r.Demands.Median()

	out.Hourly.TotalQueue = r.TotalQueue.Values()
	out.Hourly.LightQueue = r.LightQueue.Values()
	out.Hourly.LocalUtil = r.LocalUtil.Values()
	out.Hourly.SystemUtil = r.SystemUtil.Values()

	for i := 0; i < r.WaitAll.Len(); i++ {
		out.ByDemand.Labels = append(out.ByDemand.Labels, r.WaitAll.Label(i))
		out.ByDemand.WaitAll = append(out.ByDemand.WaitAll, r.WaitAll.Mean(i))
		out.ByDemand.WaitLight = append(out.ByDemand.WaitLight, r.WaitLight.Mean(i))
		out.ByDemand.CkptRate = append(out.ByDemand.CkptRate, r.CkptRate.Mean(i))
		out.ByDemand.Leverage = append(out.ByDemand.Leverage, r.LeverageBins.Mean(i))
		out.ByDemand.Jobs = append(out.ByDemand.Jobs, r.WaitAll.Count(i))
	}

	out.Scalars.TotalMachineHours = r.TotalMachineHours
	out.Scalars.AvailableHours = r.AvailableHours
	out.Scalars.ConsumedHours = r.ConsumedHours
	out.Scalars.LocalUtilMean = r.LocalUtilMean
	out.Scalars.CompletedJobs = r.CompletedJobs
	out.Scalars.TotalJobs = r.TotalJobs
	out.Scalars.MeanWaitRatioAll = r.MeanWaitRatioAll
	out.Scalars.MeanWaitRatioLight = r.MeanWaitRatioLight
	out.Scalars.OverallLeverage = r.OverallLeverage
	out.Scalars.ShortJobLeverage = r.ShortJobLeverage
	out.Scalars.MeanCkptsPerJob = r.MeanCkptsPerJob
	out.Scalars.Preempts = r.Preempts
	out.Scalars.Vacates = r.Vacates
	out.Scalars.Crashes = r.Crashes
	out.Scalars.WorkLostHours = r.WorkLostHours
	out.Scalars.DownHours = r.DownHours

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteHourlyCSV emits the Figure 3/5/6/7 time series as CSV: one row
// per hour of the observation window.
func (r *Report) WriteHourlyCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "hour,time,total_queue,light_queue,local_util,system_util"); err != nil {
		return err
	}
	tq, lq := r.TotalQueue.Values(), r.LightQueue.Values()
	lu, su := r.LocalUtil.Values(), r.SystemUtil.Values()
	for i := range tq {
		_, err := fmt.Fprintf(w, "%d,%s,%.2f,%.2f,%.4f,%.4f\n",
			i, r.TotalQueue.Time(i).Format("2006-01-02T15:04"),
			tq[i], lq[i], lu[i], su[i])
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteByDemandCSV emits the Figure 4/8/9 per-demand-bin statistics.
func (r *Report) WriteByDemandCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "demand_bin,jobs,wait_all,wait_light,ckpt_rate,leverage"); err != nil {
		return err
	}
	for i := 0; i < r.WaitAll.Len(); i++ {
		if r.WaitAll.Count(i) == 0 {
			continue
		}
		label := strings.ReplaceAll(r.WaitAll.Label(i), ",", ";")
		_, err := fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.3f,%.1f\n",
			label, r.WaitAll.Count(i), r.WaitAll.Mean(i), r.WaitLight.Mean(i),
			r.CkptRate.Mean(i), r.LeverageBins.Mean(i))
		if err != nil {
			return err
		}
	}
	return nil
}
