package accounting

import (
	"reflect"
	"testing"
	"time"

	"condor/internal/cost"
)

// TestFiguresUsersIndependentOfMapOrder gives five owners whose demand
// total depends on the order it is summed in, and requires the same
// Table 1 rows from every call: the total is summed in user-name order,
// not map order.
func TestFiguresUsersIndependentOfMapOrder(t *testing.T) {
	demands := map[string]time.Duration{
		"ann": time.Hour / 3, "bob": 7 * time.Hour / 10, "cat": 2 * time.Hour / 7,
		"dan": 11 * time.Hour, "eve": 3 * time.Hour / 17,
	}
	sums := map[float64]bool{}
	names := []string{"ann", "bob", "cat", "dan", "eve"}
	for r := range names {
		var sum float64
		for i := range names {
			sum += demands[names[(r+i)%len(names)]].Hours()
		}
		sums[sum] = true
	}
	if len(sums) < 2 {
		t.Fatalf("the demands sum alike in every rotation (%v): the test shows nothing", sums)
	}

	var jobs []FigureJob
	for _, name := range names {
		d := demands[name]
		jobs = append(jobs, FigureJob{User: name, Demand: d, Done: true, Turnaround: 2 * d})
	}
	want := Figures(jobs, cost.Paper()).Users
	for i := 0; i < 50; i++ {
		if got := Figures(jobs, cost.Paper()).Users; !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Users differ:\n got  %+v\n want %+v", i, got, want)
		}
	}
}

// TestFiguresPricesSupport checks Figure 9's pricing: a job's support is
// the bytes its placements and checkpoints moved plus its forwarded
// calls, under the cost model.
func TestFiguresPricesSupport(t *testing.T) {
	m := cost.Paper()
	const mb = 1 << 20
	job := FigureJob{
		User: "ann",
		Totals: JobTotals{
			Placements: 2, Checkpoints: 1, CkptBytes: mb, Syscalls: 500, Preempts: 1,
		},
		Demand:         10 * time.Hour,
		Done:           true,
		Turnaround:     10 * time.Hour,
		PlacementBytes: mb,
	}
	f := Figures([]FigureJob{job, {User: "bob", Demand: time.Hour}}, m)
	// 3 MB moved at 5 s/MB, plus 500 calls at 10 ms.
	support := 15*time.Second + 5*time.Second
	if want := cost.Leverage(10*time.Hour, support); f.OverallLeverage != want {
		t.Fatalf("OverallLeverage = %v, want %v", f.OverallLeverage, want)
	}
	if f.MeanCheckpointMB != 1 || f.MeanMoveCostSeconds != 5 {
		t.Fatalf("mean move = %v MB, %v s; want 1 MB, 5 s", f.MeanCheckpointMB, f.MeanMoveCostSeconds)
	}
	if f.TotalJobs != 2 || f.CompletedJobs != 1 || f.Vacates != 1 || f.MeanCkptsPerJob != 1 {
		t.Fatalf("jobs %d/%d, vacates %d, ckpts/job %v", f.CompletedJobs, f.TotalJobs, f.Vacates, f.MeanCkptsPerJob)
	}
	if f.MeanWaitRatioAll != 0 || f.MeanWaitRatioLight != 0 {
		t.Fatalf("wait ratios %v/%v for a job that never waited", f.MeanWaitRatioAll, f.MeanWaitRatioLight)
	}
}
