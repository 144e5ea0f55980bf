package schedd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/eventlog"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/wire"
)

// newStation builds a fast-interval station for tests.
func newStation(t *testing.T, name string, mon *machine.ScriptedMonitor, store ckpt.Store) *Station {
	t.Helper()
	if mon == nil {
		mon = machine.NewScriptedMonitor(false)
	}
	st, err := New(Config{
		Name:    name,
		Monitor: mon,
		Store:   store,
		Starter: ru.StarterConfig{
			ScanInterval:  5 * time.Millisecond,
			SuspendGrace:  30 * time.Millisecond,
			StepsPerSlice: 10_000,
		},
		DialTimeout: time.Second,
		WaitTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestSubmitAndQueue(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	id1, err := st.Submit("alice", cvm.SumProgram(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := st.Submit("bob", cvm.SumProgram(20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("duplicate job ids")
	}
	if !strings.HasPrefix(id1, "ws1/") {
		t.Fatalf("job id %q lacks station prefix", id1)
	}
	q := st.Queue()
	if len(q) != 2 || q[0].ID != id1 || q[1].ID != id2 {
		t.Fatalf("queue = %+v", q)
	}
	if st.WaitingJobs() != 2 {
		t.Fatalf("waiting = %d", st.WaitingJobs())
	}
	if q[0].State != proto.JobIdle || q[0].Owner != "alice" {
		t.Fatalf("job status = %+v", q[0])
	}
}

func TestSubmitValidation(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	if _, err := st.Submit("a", nil, 0); err == nil {
		t.Fatal("nil program accepted")
	}
	bad := &cvm.Program{Name: "bad"}
	if _, err := st.Submit("a", bad, 0); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestSubmitDiskFull(t *testing.T) {
	store := ckpt.NewMemStore(2048, false) // tiny disk
	st := newStation(t, "ws1", nil, store)
	var sawFull bool
	for i := 0; i < 50; i++ {
		_, err := st.Submit("a", cvm.SumProgram(int64(i)), 0)
		if err != nil {
			if !errors.Is(err, ErrDiskFull) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("tiny store never filled — §4 disk limit not enforced")
	}
}

func TestPlaceNextRunsJobRemotely(t *testing.T) {
	// Two stations: ws1 submits, ws2 executes.
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	jobID, err := ws1.Submit("alice", cvm.SumProgram(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := ws1.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if placed != jobID {
		t.Fatalf("placed %q, want %q", placed, jobID)
	}
	status, err := ws1.Wait(jobID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobCompleted || status.ExitCode != 0 {
		t.Fatalf("status = %+v", status)
	}
	if strings.TrimSpace(status.Stdout) != "12502500" {
		t.Fatalf("stdout = %q", status.Stdout)
	}
	if status.ExecHost != "ws2" {
		t.Fatalf("exec host = %q", status.ExecHost)
	}
}

func TestPlaceNextNoJobs(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err == nil {
		t.Fatal("placement with empty queue succeeded")
	}
}

func TestPlacementPacing(t *testing.T) {
	mon := machine.NewScriptedMonitor(false)
	st, err := New(Config{
		Name:            "ws1",
		Monitor:         mon,
		PlacementPacing: time.Hour,
		Starter: ru.StarterConfig{
			ScanInterval: 5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	ws2 := newStation(t, "ws2", nil, nil)
	ws3 := newStation(t, "ws3", nil, nil)
	if _, err := st.Submit("a", cvm.SumProgram(10), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit("a", cvm.SumProgram(20), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PlaceNext("ws3", ws3.Addr()); err == nil ||
		!strings.Contains(err.Error(), "pacing") {
		t.Fatalf("second immediate placement: err = %v, want pacing refusal", err)
	}
}

func TestLocalPriorityIsFIFO(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	first, _ := ws1.Submit("a", cvm.SumProgram(100_000), 0)
	if _, err := ws1.Submit("a", cvm.SumProgram(200_000), 0); err != nil {
		t.Fatal(err)
	}
	placed, err := ws1.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if placed != first {
		t.Fatalf("placed %q, want FIFO head %q", placed, first)
	}
}

func TestVacatedJobRequeuesWithCheckpoint(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	execMon := machine.NewScriptedMonitor(false)
	ws2, err := New(Config{
		Name:    "ws2",
		Monitor: execMon,
		Starter: ru.StarterConfig{
			ScanInterval:  2 * time.Millisecond,
			SuspendGrace:  5 * time.Millisecond,
			StepsPerSlice: 2_000,
			SliceDelay:    time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws2.Close)

	jobID, err := ws1.Submit("alice", cvm.SumProgram(3_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // make progress
	execMon.SetActive(true)           // owner returns on ws2

	deadline := time.Now().Add(5 * time.Second)
	var status proto.JobStatus
	for {
		status, err = ws1.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if status.State == proto.JobIdle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never requeued; status = %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if status.Checkpoints == 0 {
		t.Fatal("requeued without recording a checkpoint")
	}
	if status.CPUSteps == 0 {
		t.Fatal("checkpoint shows zero progress")
	}
	// Re-place on a third machine; it must finish with the right answer.
	ws3 := newStation(t, "ws3", nil, nil)
	if _, err := ws1.PlaceNext("ws3", ws3.Addr()); err != nil {
		t.Fatal(err)
	}
	final, err := ws1.Wait(jobID, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != proto.JobCompleted {
		t.Fatalf("final = %+v", final)
	}
	if strings.TrimSpace(final.Stdout) != "4500001500000" {
		t.Fatalf("stdout = %q", final.Stdout)
	}
	if final.CPUSteps <= status.CPUSteps {
		t.Fatal("no progress preserved across migration")
	}
}

func TestJobLostOnExecCrashRequeues(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	jobID, err := ws1.Submit("a", cvm.SumProgram(50_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	ws2.Close() // exec machine "crashes"
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, err := ws1.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if status.State == proto.JobIdle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lost job never requeued: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRemoveRunningJob(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	jobID, _ := ws1.Submit("a", cvm.SumProgram(100_000_000), 0)
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	if !ws1.Remove(jobID) {
		t.Fatal("remove refused")
	}
	status, err := ws1.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobRemoved {
		t.Fatalf("state = %v", status.State)
	}
	// The execution machine frees up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := ws2.Starter().Running(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exec machine still claimed after remove")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ws1.Remove("ws1/999") {
		t.Fatal("removing unknown job reported success")
	}
}

func TestStationState(t *testing.T) {
	mon := machine.NewScriptedMonitor(false)
	st := newStation(t, "ws1", mon, nil)
	if got := st.State(); got != proto.StationIdle {
		t.Fatalf("state = %v, want idle", got)
	}
	mon.SetActive(true)
	if got := st.State(); got != proto.StationOwner {
		t.Fatalf("state = %v, want owner", got)
	}
}

func TestWaitTimesOutWithCurrentStatus(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	jobID, _ := st.Submit("a", cvm.SumProgram(10), 0)
	status, err := st.Wait(jobID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobIdle {
		t.Fatalf("state = %v, want idle (never placed)", status.State)
	}
}

func TestWaitUnknownJob(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	if _, err := st.Wait("nope", time.Second); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("err = %v", err)
	}
	if _, err := st.Job("nope"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestHomeStationOf(t *testing.T) {
	for in, want := range map[string]string{
		"ws1/5":    "ws1",
		"a/b/9":    "a/b",
		"noslash":  "noslash",
		"ws-2/123": "ws-2",
	} {
		if got := homeStationOf(in); got != want {
			t.Fatalf("homeStationOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("station without name accepted")
	}
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Fatal("station without monitor accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	st.Close()
	st.Close() // second close must not panic
	if _, err := st.Submit("a", cvm.SumProgram(1), 0); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestPriorityOrdersLocalQueue(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	low, err := ws1.SubmitJob("a", cvm.SumProgram(100), SubmitOptions{Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	high, err := ws1.SubmitJob("a", cvm.SumProgram(200), SubmitOptions{Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := ws1.SubmitJob("a", cvm.SumProgram(300), SubmitOptions{Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	placed, err := ws1.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if placed != high {
		t.Fatalf("placed %q, want highest-priority %q", placed, high)
	}
	if _, err := ws1.Wait(high, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	placed, err = ws1.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if placed != mid {
		t.Fatalf("second placement %q, want %q", placed, mid)
	}
	_ = low
}

func TestPriorityTieBreaksFIFO(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	first, _ := ws1.SubmitJob("a", cvm.SumProgram(100), SubmitOptions{Priority: 3})
	if _, err := ws1.SubmitJob("a", cvm.SumProgram(200), SubmitOptions{Priority: 3}); err != nil {
		t.Fatal(err)
	}
	placed, err := ws1.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if placed != first {
		t.Fatalf("placed %q, want FIFO-first %q at equal priority", placed, first)
	}
}

func TestEventLogRecordsJobLifecycle(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	jobID, err := ws1.Submit("alice", cvm.SumProgram(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := ws1.Wait(jobID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	trail := ws1.Events().ForJob(jobID)
	kinds := make([]eventlog.Kind, 0, len(trail))
	for _, e := range trail {
		kinds = append(kinds, e.Kind)
	}
	want := []eventlog.Kind{eventlog.KindSubmit, eventlog.KindPlace, eventlog.KindComplete}
	if len(kinds) != len(want) {
		t.Fatalf("trail = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trail[%d] = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestQueueRecoveryFromDurableStore(t *testing.T) {
	dir := t.TempDir()
	store1, err := ckpt.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws1 := newStation(t, "ws1", nil, store1)
	idA, err := ws1.Submit("alice", cvm.SumProgram(5000), 0)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := ws1.Submit("bob", cvm.SumProgram(100_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	ws1.Close() // submitter machine "reboots"

	store2, err := ckpt.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws1b := newStation(t, "ws1", nil, store2)
	q := ws1b.Queue()
	if len(q) != 2 {
		t.Fatalf("recovered queue = %+v", q)
	}
	ids := map[string]bool{q[0].ID: true, q[1].ID: true}
	if !ids[idA] || !ids[idB] {
		t.Fatalf("recovered ids %v, want %s and %s", ids, idA, idB)
	}
	// New submissions must not collide with recovered ids.
	idC, err := ws1b.Submit("carol", cvm.SumProgram(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ids[idC] {
		t.Fatalf("id collision: %s", idC)
	}
	// A recovered job runs to completion from its stored checkpoint.
	ws2 := newStation(t, "ws2", nil, nil)
	placed, err := ws1b.PlaceNext("ws2", ws2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	status, err := ws1b.Wait(placed, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobCompleted {
		t.Fatalf("recovered job = %+v", status)
	}
}

func TestRecoveryPreservesSubmissionTimeAndOrder(t *testing.T) {
	dir := t.TempDir()
	store1, err := ckpt.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws1 := newStation(t, "ws1", nil, store1)
	// Eleven jobs so "ws1/10" exists: a lexicographic listing would rank
	// it before "ws1/2" and scramble the recovered queue.
	for i := 0; i < 11; i++ {
		if _, err := ws1.SubmitJob("alice", cvm.SumProgram(1000),
			SubmitOptions{Priority: i % 3}); err != nil {
			t.Fatal(err)
		}
	}
	before := ws1.Queue()
	ws1.Close()

	store2, err := ckpt.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws1b := newStation(t, "ws1", nil, store2)
	after := ws1b.Queue()
	if len(after) != len(before) {
		t.Fatalf("recovered %d jobs, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("queue[%d] = %s, want %s (order not preserved)", i, after[i].ID, before[i].ID)
		}
		if after[i].Priority != before[i].Priority {
			t.Fatalf("%s recovered priority %d, want %d", after[i].ID, after[i].Priority, before[i].Priority)
		}
		// SubmittedAt round-trips through checkpoint metadata at
		// millisecond resolution; it must be the original submission
		// time, not the recovery time.
		if got, want := after[i].SubmittedAt.UnixMilli(), before[i].SubmittedAt.UnixMilli(); got != want {
			t.Fatalf("%s recovered SubmittedAt %d, want %d", after[i].ID, got, want)
		}
	}
}

func TestRecoveryIgnoresForeignCheckpoints(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a checkpoint belonging to another station.
	img := makeStationImage(t)
	if err := store.Put(ckpt.Meta{JobID: "other/7", Owner: "x"}, img); err != nil {
		t.Fatal(err)
	}
	ws1 := newStation(t, "ws1", nil, store)
	if q := ws1.Queue(); len(q) != 0 {
		t.Fatalf("foreign checkpoint queued: %+v", q)
	}
}

func makeStationImage(t *testing.T) *cvm.Image {
	t.Helper()
	v, err := cvm.New(cvm.SpinProgram(10), cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return v.Snapshot()
}

// TestPlaceNextKeepsFastJobTerminal is the regression test for PlaceNext
// overwriting a state that landed while it was still returning: a job
// that halts in its first slice can deliver JobDone before ru.Place has
// handed the shadow back, and the tail of PlaceNext then used to mark it
// running forever. Several home/exec pairs place such jobs at once, so
// the two goroutines of each placement contend for the cores.
func TestPlaceNextKeepsFastJobTerminal(t *testing.T) {
	const pairs, jobsPerPair = 4, 100
	halt := cvm.MustAssemble("halt", ".text\nstart:\n HALT 0\n")
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		home := newStation(t, fmt.Sprintf("home%d", p), nil, nil)
		exec := newStation(t, fmt.Sprintf("exec%d", p), nil, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(20 * time.Second)
			for i := 0; i < jobsPerPair; i++ {
				if _, err := home.Submit("a", halt, 0); err != nil {
					t.Error(err)
					return
				}
				// The exec station runs one job at a time; a placement that
				// arrives before the previous job has cleared is rejected.
				for {
					_, err := home.PlaceNext(exec.Name(), exec.Addr())
					if err == nil {
						break
					}
					if !errors.Is(err, ru.ErrPlacementRejected) || time.Now().After(deadline) {
						t.Errorf("place job %d: %v", i, err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			// The last JobDone may still be in flight; a stranded job never
			// leaves running, so a short bounded wait tells them apart.
			settle := time.Now().Add(5 * time.Second)
			for {
				var open []proto.JobStatus
				for _, s := range home.Queue() {
					if !s.State.Terminal() {
						open = append(open, s)
					}
				}
				if len(open) == 0 {
					return
				}
				if time.Now().After(settle) {
					for _, s := range open {
						t.Errorf("job %s left in state %v, want completed", s.ID, s.State)
					}
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
}

// TestStaleGraceNoticeDropped delivers a placement's suspended/resumed
// notices after that placement has ended — the order their one-way,
// goroutine-per-message delivery allows — and requires that they change
// nothing: the requeued job stays idle and placeable, the re-placed job
// is not suspended by its predecessor's notice, and the finished job
// stays finished. A notice from the placement that holds the job still
// applies.
func TestStaleGraceNoticeDropped(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	execMon := machine.NewScriptedMonitor(false)
	slow, err := New(Config{
		Name:    "slow",
		Monitor: execMon,
		Starter: ru.StarterConfig{
			ScanInterval:  2 * time.Millisecond,
			SuspendGrace:  5 * time.Millisecond,
			StepsPerSlice: 2_000,
			SliceDelay:    time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(slow.Close)
	jobID, err := home.Submit("alice", cvm.SumProgram(3_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	state := func() proto.JobState {
		t.Helper()
		s, err := home.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		return s.State
	}
	if _, err := home.PlaceNext("slow", slow.Addr()); err != nil {
		t.Fatal(err)
	}
	first := &jobEvents{station: home, jobID: jobID, epoch: 1}
	first.JobSuspended(jobID)
	if got := state(); got != proto.JobSuspendedState {
		t.Fatalf("live suspended notice: state = %v, want suspended", got)
	}
	first.JobResumed(jobID)
	if got := state(); got != proto.JobRunning {
		t.Fatalf("live resumed notice: state = %v, want running", got)
	}

	// The owner returns for good: the job is vacated and requeued.
	execMon.SetActive(true)
	for deadline := time.Now().Add(5 * time.Second); state() != proto.JobIdle; {
		if time.Now().After(deadline) {
			t.Fatalf("job never requeued; state = %v", state())
		}
		time.Sleep(time.Millisecond)
	}
	dropped := mStaleEvents.Value()
	first.JobSuspended(jobID)
	if got := state(); got != proto.JobIdle {
		t.Fatalf("stale suspended after requeue: state = %v, want idle", got)
	}

	fast := newStation(t, "fast", nil, nil)
	if _, err := home.PlaceNext("fast", fast.Addr()); err != nil {
		t.Fatalf("requeued job not placeable: %v", err)
	}
	first.JobSuspended(jobID)
	if got := state(); got == proto.JobSuspendedState {
		t.Fatal("first placement's notice suspended the second placement's job")
	}
	final, err := home.Wait(jobID, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != proto.JobCompleted {
		t.Fatalf("final = %+v", final)
	}
	(&jobEvents{station: home, jobID: jobID, epoch: 2}).JobResumed(jobID)
	if got := state(); got != proto.JobCompleted {
		t.Fatalf("notice after completion: state = %v, want completed", got)
	}
	if got := mStaleEvents.Value() - dropped; got != 3 {
		t.Fatalf("stale notices counted = %d, want 3", got)
	}
}

// slowExec is an execution station whose jobs run slowly enough to be
// caught mid-run (2 000 steps a millisecond).
func slowExec(t *testing.T, name string) *Station {
	t.Helper()
	st, err := New(Config{
		Name:    name,
		Monitor: machine.NewScriptedMonitor(false),
		Starter: ru.StarterConfig{
			ScanInterval:  2 * time.Millisecond,
			SuspendGrace:  5 * time.Millisecond,
			StepsPerSlice: 2_000,
			SliceDelay:    time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// placeHook serves placements on a test address: before answering a
// PlaceRequest it calls before, then answers with reply, or hands the
// request to starter when reply is nil.
func placeHook(t *testing.T, starter *ru.Starter, before func(proto.PlaceRequest), reply *proto.PlaceReply) string {
	t.Helper()
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		var starterHandler wire.Handler
		if starter != nil {
			starterHandler = starter.Handler(p)
		}
		return func(ctx context.Context, msg any) (any, error) {
			if req, ok := msg.(proto.PlaceRequest); ok {
				before(req)
				if reply != nil {
					return *reply, nil
				}
			}
			if starterHandler == nil {
				return nil, fmt.Errorf("unexpected %T", msg)
			}
			return starterHandler(ctx, msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestRemoveDuringRejectedPlacement: the owner removes a job while its
// placement handshake is in flight, and the execution machine then
// rejects it. The job stays removed (its checkpoint is gone, so a
// requeued job could never be placed again and, first in queue order,
// would wedge the station), and the next placement takes the next job.
func TestRemoveDuringRejectedPlacement(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	first, err := home.Submit("alice", cvm.SumProgram(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := home.Submit("alice", cvm.SumProgram(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := placeHook(t, nil, func(req proto.PlaceRequest) { home.Remove(req.JobID) },
		&proto.PlaceReply{Accepted: false, Reason: "owner active"})
	if _, err := home.PlaceNext("fake", addr); !errors.Is(err, ru.ErrPlacementRejected) {
		t.Fatalf("placement err = %v, want rejected", err)
	}
	if s, _ := home.Job(first); s.State != proto.JobRemoved {
		t.Fatalf("removed job came back as %v", s.State)
	}
	if n := home.WaitingJobs(); n != 1 {
		t.Fatalf("waiting jobs = %d, want 1", n)
	}
	exec := newStation(t, "exec", nil, nil)
	placed, err := home.PlaceNext("exec", exec.Addr())
	if err != nil || placed != second {
		t.Fatalf("next placement = %q, %v; want %s", placed, err, second)
	}
	if final, err := home.Wait(second, 10*time.Second); err != nil || final.State != proto.JobCompleted {
		t.Fatalf("second job = %+v, %v", final, err)
	}
}

// TestRemoveDuringAcceptedPlacement: the owner removes a job while its
// placement handshake is in flight, and the execution machine accepts
// it. The job stays removed, and the machine is vacated as Remove
// promises instead of running the removed job to the end.
func TestRemoveDuringAcceptedPlacement(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	exec := slowExec(t, "exec")
	jobID, err := home.Submit("alice", cvm.SumProgram(100_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := placeHook(t, exec.Starter(), func(req proto.PlaceRequest) { home.Remove(req.JobID) }, nil)
	if placed, err := home.PlaceNext("exec", addr); err == nil {
		t.Fatalf("placement of removed job %s reported used", placed)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, _, ok := exec.Starter().Running(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("exec machine still runs the removed job")
		}
	}
	if s, _ := home.Job(jobID); s.State != proto.JobRemoved {
		t.Fatalf("state = %v, want removed", s.State)
	}
}

// TestRemoveThenLateEvents: a placement's vacate, periodic checkpoint
// and completion that arrive after the owner removed the job change
// nothing: the job stays removed, no checkpoint is left in the store,
// nothing waits, and each late event is counted.
func TestRemoveThenLateEvents(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	exec := slowExec(t, "exec")
	jobID, err := home.Submit("alice", cvm.SumProgram(100_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, blob, err := home.Store().GetBlob(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.PlaceNext("exec", exec.Addr()); err != nil {
		t.Fatal(err)
	}
	if !home.Remove(jobID) {
		t.Fatal("remove refused")
	}
	late := &jobEvents{station: home, jobID: jobID, epoch: 1}
	for _, ev := range []struct {
		name    string
		deliver func()
	}{
		{"vacate", func() {
			late.JobVacated(proto.JobVacatedMsg{JobID: jobID, Checkpoint: blob, Reason: "owner returned", Steps: 10})
		}},
		{"checkpoint", func() {
			late.JobCheckpointed(proto.JobCheckpointMsg{JobID: jobID, Checkpoint: blob, Steps: 20})
		}},
		{"done", func() { late.JobDone(proto.JobDoneMsg{JobID: jobID, Steps: 30}) }},
	} {
		stale := mStaleEvents.Value()
		ev.deliver()
		s, err := home.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != proto.JobRemoved || s.CPUSteps != 0 {
			t.Errorf("late %s: state %v, %d steps; want removed, 0", ev.name, s.State, s.CPUSteps)
		}
		if home.Store().Has(jobID) {
			t.Errorf("late %s left a checkpoint in the store", ev.name)
		}
		if n := home.WaitingJobs(); n != 0 {
			t.Errorf("late %s: waiting jobs = %d, want 0", ev.name, n)
		}
		if got := mStaleEvents.Value() - stale; got != 1 {
			t.Errorf("late %s counted %d stale events, want 1", ev.name, got)
		}
	}
}

// TestStaleJobDoneDropped: a completion from a placement that has since
// been vacated and replaced by another does not finish the job's current
// placement.
func TestStaleJobDoneDropped(t *testing.T) {
	home := newStation(t, "home", nil, nil)
	exec1, exec2 := slowExec(t, "exec1"), slowExec(t, "exec2")
	jobID, err := home.Submit("alice", cvm.SumProgram(100_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.PlaceNext("exec1", exec1.Addr()); err != nil {
		t.Fatal(err)
	}
	if !exec1.Starter().Vacate(jobID, "test") {
		t.Fatal("nothing to vacate")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if s, _ := home.Job(jobID); s.State == proto.JobIdle {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("vacated job never requeued")
		}
	}
	if _, err := home.PlaceNext("exec2", exec2.Addr()); err != nil {
		t.Fatal(err)
	}
	stale := mStaleEvents.Value()
	(&jobEvents{station: home, jobID: jobID, epoch: 1}).JobDone(proto.JobDoneMsg{JobID: jobID, Steps: 99})
	s, err := home.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != proto.JobRunning || s.CPUSteps == 99 {
		t.Fatalf("stale completion: state %v, %d steps; want running", s.State, s.CPUSteps)
	}
	if got := mStaleEvents.Value() - stale; got != 1 {
		t.Fatalf("stale completions counted = %d, want 1", got)
	}
}
