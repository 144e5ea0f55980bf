package condor

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"condor/internal/accounting"
	"condor/internal/coordinator"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/wire"
)

// TestAccountingEndToEnd is the paper's §5 measurement loop run live: a
// job is preempted mid-execution (kill-immediately, so work past the
// last periodic checkpoint is redone) and resumes elsewhere, after
// which the process ledger must show badput > 0, checkpoint overhead
// > 0, and a finite per-user leverage — and condor-report's renderer
// must print all of it. Station/owner names are unique to this test
// because accounting.Default accumulates across the whole test binary.
func TestAccountingEndToEnd(t *testing.T) {
	p, err := NewPool(PoolConfig{
		Stations:      3,
		StationPrefix: "acct",
		Fast:          true,
		// Kill policy makes preemption lose the work since the last
		// checkpoint — the badput the paper measures.
		KillImmediately:    true,
		PeriodicCheckpoint: 40 * time.Millisecond,
		SliceDelay:         200 * time.Microsecond,
		StepsPerSlice:      5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const owner = "acct-alice"
	// A kill can land exactly on a checkpoint boundary and lose
	// nothing; evict repeatedly (fresh job each round) until the ledger
	// actually shows redone work.
	deadline := time.Now().Add(60 * time.Second)
	for badput(owner) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no badput accrued after repeated mid-run preemptions")
		}
		runOnePreemptedJob(t, p, owner)
	}

	view := accounting.Default.Snapshot()
	var user *accounting.PartyRow
	for i := range view.Users {
		if view.Users[i].Name == owner {
			user = &view.Users[i]
		}
	}
	if user == nil {
		t.Fatalf("no user row for %s in %+v", owner, view.Users)
	}
	if user.BadputSteps == 0 {
		t.Error("user badput = 0 after mid-run kill")
	}
	if user.Checkpoints == 0 || user.CkptNanos == 0 {
		t.Errorf("checkpoint overhead not metered: %d ckpts, %d ns",
			user.Checkpoints, user.CkptNanos)
	}
	if user.SupportNanos == 0 {
		t.Error("support time = 0; leverage denominator missing")
	}
	if user.Leverage <= 0 || math.IsInf(user.Leverage, 0) || math.IsNaN(user.Leverage) {
		t.Errorf("leverage = %v, want finite and positive", user.Leverage)
	}
	if view.QueueWait.Count == 0 {
		t.Error("no queue-wait episodes recorded")
	}

	// The report renderer must surface every §5 table on this view.
	report := accounting.RenderReport([]accounting.Section{{Name: "test", View: view}}, 64)
	for _, want := range []string{
		"Per-user capacity and leverage",
		owner,
		"badput (redone after preemption)",
		"checkpoint overhead",
		"Queue-wait distribution",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q\n%s", want, report)
		}
	}

	// The same view answers an AccountingRequest the way condor-report
	// reads it.
	peer, err := wire.Dial(p.CoordinatorAddr(), 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.AccountingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ar, ok := reply.(proto.AccountingReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	found := false
	for _, u := range ar.Process.Users {
		found = found || u.Name == owner
	}
	if !found {
		t.Errorf("AccountingReply process section missing %s: %+v", owner, ar.Process.Users)
	}
}

// runOnePreemptedJob submits a job, waits for it to run and checkpoint,
// brings the owner of its execution machine back (kill-immediately
// eviction), and waits for the job to finish elsewhere.
func runOnePreemptedJob(t *testing.T, p *Pool, owner string) {
	t.Helper()
	jobID, err := p.SubmitJob("acct0", owner, SumProgram(5_000_000), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var execHost string
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := p.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning && st.Checkpoints >= 1 {
			execHost = st.ExecHost
			break
		}
		if st.State == JobCompleted {
			return // too fast to catch mid-run; caller will retry
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never ran+checkpointed: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.SetOwnerActive(execHost, true); err != nil {
		t.Fatal(err)
	}
	status, err := p.Wait(jobID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobCompleted {
		t.Fatalf("preempted job did not finish: %+v", status)
	}
	if err := p.SetOwnerActive(execHost, false); err != nil {
		t.Fatal(err)
	}
}

// badput reads the owner's accumulated badput from the process ledger.
func badput(owner string) uint64 {
	for _, u := range accounting.Default.Snapshot().Users {
		if u.Name == owner {
			return u.BadputSteps
		}
	}
	return 0
}

// TestAccountingSurvivesCoordinatorRestart proves the allocation ledger
// rides the coordinator's saved state: grants issued before a restart
// are still reported (over the same AccountingRequest RPC condor-report
// uses) by the restarted incarnation.
func TestAccountingSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	// A huge poll interval freezes the background ticker so every
	// allocation cycle below is an explicit Cycle() call and the totals
	// are deterministic between the pre-close RPC and Close.
	coord, err := coordinator.New(coordinator.Config{
		PollInterval: time.Hour,
		StateDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	const home = "acctr0"
	stations := make([]*schedd.Station, 0, 2)
	for _, name := range []string{home, "acctr1"} {
		st, err := schedd.New(schedd.Config{
			Name:    name,
			Monitor: machine.NewScriptedMonitor(false),
			Starter: ru.StarterConfig{
				ScanInterval: 5 * time.Millisecond,
				SuspendGrace: 50 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Register(coord.Addr()); err != nil {
			t.Fatal(err)
		}
		stations = append(stations, st)
	}
	jobID, err := stations[0].SubmitJob("acct-bob", SumProgram(50_000), schedd.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		coord.Cycle()
		st, err := stations[0].Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	before := queryAlloc(t, coord.Addr(), home)
	if before.GrantsUsed == 0 {
		t.Fatalf("no used grants recorded before restart: %+v", before)
	}
	coord.Close()

	coord2, err := coordinator.New(coordinator.Config{
		PollInterval: time.Hour,
		StateDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	after := queryAlloc(t, coord2.Addr(), home)
	if after != before {
		t.Fatalf("allocation totals did not survive restart:\nbefore %+v\nafter  %+v", before, after)
	}
}

// queryAlloc fetches one station's allocation totals over the wire, the
// way condor-report does.
func queryAlloc(t *testing.T, addr, station string) accounting.AllocTotals {
	t.Helper()
	peer, err := wire.Dial(addr, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.AccountingRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ar, ok := reply.(proto.AccountingReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	if !ar.HasCoordinator {
		t.Fatal("coordinator did not answer with its allocation ledger")
	}
	for _, a := range ar.Coordinator.Alloc {
		if a.Station == station {
			return a.AllocTotals
		}
	}
	t.Fatalf("no alloc row for %s in %+v", station, ar.Coordinator.Alloc)
	return accounting.AllocTotals{}
}
