package accounting

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterTotalsAndRetireFold(t *testing.T) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	if again := l.Job("wsA/1", "", ""); again != m {
		t.Fatal("Job must intern one meter per job id")
	}
	m.Syscall(100, 2*time.Millisecond)
	m.Syscall(50, 1*time.Millisecond)
	m.ExecTime(600 * time.Millisecond)
	m.ObserveSteps(5000)
	m.ObserveSteps(4000) // stale observation must not regress the max
	m.Checkpoint(1024, 5*time.Millisecond)
	m.Badput(700)
	m.Preempted()

	v := l.Snapshot()
	if len(v.Jobs) != 1 {
		t.Fatalf("live jobs = %d, want 1", len(v.Jobs))
	}
	got := v.Jobs[0]
	if got.Syscalls != 2 || got.SyscallBytes != 150 || got.SupportNanos != int64(3*time.Millisecond) {
		t.Errorf("syscall totals = %+v", got.JobTotals)
	}
	if got.RemoteSteps != 5000 {
		t.Errorf("RemoteSteps = %d, want 5000 (CAS-max)", got.RemoteSteps)
	}
	if got.GoodputSteps() != 4300 {
		t.Errorf("GoodputSteps = %d, want 4300", got.GoodputSteps())
	}
	if got.Checkpoints != 1 || got.CkptBytes != 1024 {
		t.Errorf("checkpoint totals = %+v", got.JobTotals)
	}
	// Live jobs fold into party rows too.
	if len(v.Users) != 1 || v.Users[0].Name != "alice" || v.Users[0].RemoteSteps != 5000 {
		t.Errorf("users = %+v", v.Users)
	}

	l.Retire("wsA/1")
	v = l.Snapshot()
	if len(v.Jobs) != 0 {
		t.Fatalf("live jobs after retire = %d", len(v.Jobs))
	}
	if len(v.Stations) != 1 || v.Stations[0].Name != "wsA" {
		t.Fatalf("stations = %+v", v.Stations)
	}
	st := v.Stations[0]
	if st.Jobs != 1 || st.Retired != 1 || st.RemoteSteps != 5000 || st.BadputSteps != 700 {
		t.Errorf("station fold = %+v", st)
	}
	l.Retire("wsA/1") // idempotent
	if got := l.Snapshot().Stations[0].Retired; got != 1 {
		t.Errorf("double retire folded twice: Retired = %d", got)
	}
}

func TestQueueWaitEpisodes(t *testing.T) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	base := time.Now()
	m.StartWaiting(base)
	m.Placed(base.Add(20 * time.Millisecond))
	m.StartWaiting(base.Add(time.Second))
	m.Placed(base.Add(31 * time.Second)) // 30s episode

	v := l.Snapshot()
	j := v.Jobs[0]
	if j.Placements != 2 {
		t.Errorf("Placements = %d, want 2", j.Placements)
	}
	wantWait := int64(20*time.Millisecond + 30*time.Second)
	if j.QueueWaitNanos != wantWait {
		t.Errorf("QueueWaitNanos = %d, want %d", j.QueueWaitNanos, wantWait)
	}
	if v.QueueWait.Count != 2 {
		t.Fatalf("distribution count = %d, want 2", v.QueueWait.Count)
	}
	// 20ms lands in the ≤100ms bucket (index 1); 30s in ≤1m (index 4).
	if v.QueueWait.Counts[1] != 1 || v.QueueWait.Counts[4] != 1 {
		t.Errorf("distribution = %v", v.QueueWait.Counts)
	}
	// Placed without a StartWaiting must not record an episode.
	m.Placed(base.Add(time.Minute))
	if got := l.Snapshot().QueueWait.Count; got != 2 {
		t.Errorf("phantom episode recorded: count = %d", got)
	}
}

func TestLeverageFiniteAndCapped(t *testing.T) {
	var t1 JobTotals
	t1.RemoteNanos = int64(10 * time.Second)
	t1.SupportNanos = int64(10 * time.Millisecond)
	if lev := t1.Leverage(); lev < 999 || lev > 1001 {
		t.Errorf("leverage = %v, want ~1000", lev)
	}
	t1.SupportNanos = 0
	if lev := t1.Leverage(); lev < leverageCap {
		t.Errorf("free support should render above cap, got %v", lev)
	}
	if s := fmtLeverage(t1.Leverage()); !strings.HasPrefix(s, ">") {
		t.Errorf("capped leverage renders %q", s)
	}
	var t2 JobTotals
	if lev := t2.Leverage(); lev != 0 {
		t.Errorf("leverage with no remote time = %v, want 0", lev)
	}
}

func TestAllocSnapshotRestore(t *testing.T) {
	l := NewLedger()
	l.Grant("wsA")
	l.GrantUsed("wsA")
	l.Grant("wsB")
	l.GrantDenied("wsB")
	l.Preempt("wsA")
	l.Capacity("wsA", 3, 2*time.Minute)
	l.Capacity("wsA", 0, 2*time.Minute) // zero machines: no charge

	snap := l.AllocSnapshot()
	if got := snap["wsA"]; got.Grants != 1 || got.GrantsUsed != 1 || got.Preempts != 1 ||
		got.CapacityCycles != 3 || got.CapacityNanos != int64(6*time.Minute) {
		t.Errorf("wsA alloc = %+v", got)
	}

	l2 := NewLedger()
	l2.RestoreAlloc(snap)
	if got := l2.AllocSnapshot(); len(got) != len(snap) || got["wsA"] != snap["wsA"] || got["wsB"] != snap["wsB"] {
		t.Errorf("restore mismatch: %+v vs %+v", got, snap)
	}
	// Restored totals keep counting.
	l2.Grant("wsA")
	if got := l2.AllocSnapshot()["wsA"].Grants; got != 2 {
		t.Errorf("grants after restore+grant = %d, want 2", got)
	}
	v := l2.Snapshot()
	if len(v.Alloc) != 2 || v.Alloc[0].Station != "wsA" {
		t.Errorf("alloc rows = %+v", v.Alloc)
	}
}

func TestMeterConcurrency(t *testing.T) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Syscall(10, time.Microsecond)
				m.ObserveSteps(uint64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	tt := m.totals()
	if tt.Syscalls != goroutines*per {
		t.Errorf("Syscalls = %d, want %d", tt.Syscalls, goroutines*per)
	}
	if tt.SupportNanos != int64(goroutines*per)*int64(time.Microsecond) {
		t.Errorf("SupportNanos = %d", tt.SupportNanos)
	}
	if tt.RemoteSteps != goroutines*per-1 {
		t.Errorf("RemoteSteps = %d, want %d", tt.RemoteSteps, goroutines*per-1)
	}
}

func TestRenderReport(t *testing.T) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	m.Syscall(100, 10*time.Millisecond)
	m.ExecTime(5 * time.Second)
	m.ObserveSteps(2_000_000)
	m.Checkpoint(4096, 15*time.Millisecond)
	m.Badput(50_000)
	m.Preempted()
	m.StartWaiting(time.Now().Add(-30 * time.Millisecond))
	m.Placed(time.Now())
	l.Grant("wsA")
	l.GrantUsed("wsA")
	l.Capacity("wsA", 1, time.Minute)
	now := time.Now()
	for i := 0; i < 10; i++ {
		l.Sampler().Observe("util/claimed", now.Add(time.Duration(i)*time.Second), float64(i%3))
		l.Sampler().Observe("index/wsA", now.Add(time.Duration(i)*time.Second), float64(i))
	}

	out := RenderReport([]Section{{Name: "process", View: l.Snapshot()}}, 60)
	for _, want := range []string{
		"accounting: process",
		"Per-user capacity and leverage",
		"alice",
		"badput",
		"checkpoint overhead",
		"Queue-wait distribution",
		"Utilization profile: util/claimed",
		"index/wsA",
		"Leverage",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Coordinator-style view: alloc rows without job meters.
	lc := NewLedger()
	lc.Grant("wsB")
	out = RenderReport([]Section{{Name: "coordinator", View: lc.Snapshot()}}, 60)
	if !strings.Contains(out, "Per-station allocation (coordinator)") || !strings.Contains(out, "wsB") {
		t.Errorf("coordinator report:\n%s", out)
	}
}

// TestSyscallPathAllocatesNothing pins the per-syscall accounting hot
// path at zero allocations, like the telemetry and trace hot paths.
func TestSyscallPathAllocatesNothing(t *testing.T) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	if avg := testing.AllocsPerRun(1000, func() {
		m.Syscall(128, 250*time.Microsecond)
	}); avg != 0 {
		t.Errorf("Meter.Syscall allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		m.ExecTime(time.Millisecond)
		m.ObserveSteps(1 << 40)
	}); avg != 0 {
		t.Errorf("per-slice path allocates %.1f/op, want 0", avg)
	}
}
