package coordinator

import (
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/cvm"
	"condor/internal/journal"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/wire"
)

// TestCrashRecoveryRestoresScheduleAndReservations is the core recovery
// contract: a coordinator killed without warning (Close writes no
// farewell state) must come back with the exact up-down indexes, the
// station table, and every live reservation of its previous incarnation.
func TestCrashRecoveryRestoresScheduleAndReservations(t *testing.T) {
	dir := t.TempDir()
	p := newPool(t, []string{"ws1", "ws2", "ws3"}, Config{StateDir: dir})
	for _, m := range p.monitors {
		m.SetActive(true) // nothing idle: denied demand moves ws1's index
	}
	if _, err := p.stations["ws1"].Submit("alice", cvm.SumProgram(100), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.coord.Cycle()
	}
	if _, err := p.coord.Reserve("ws2", "ws1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := p.coord.Stats().Incarnation; got != 1 {
		t.Fatalf("fresh persistent coordinator incarnation = %d, want 1", got)
	}
	pre := make(map[string]float64, 3)
	for _, name := range []string{"ws1", "ws2", "ws3"} {
		pre[name] = p.coord.Index(name)
	}
	if pre["ws1"] >= 0 {
		t.Fatalf("test premise broken: ws1 index = %v, want negative after denied demand", pre["ws1"])
	}

	p.coord.Close() // crash

	coord2, err := New(Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second})
	if err != nil {
		t.Fatalf("restart from state dir: %v", err)
	}
	defer coord2.Close()

	st := coord2.Stats()
	if st.Incarnation != 2 {
		t.Fatalf("incarnation after restart = %d, want 2", st.Incarnation)
	}
	for name, want := range pre {
		if got := coord2.Index(name); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s schedule index restored to %v, want %v", name, got, want)
		}
	}
	infos := coord2.Stations()
	if len(infos) != 3 {
		t.Fatalf("restored station table = %+v, want 3 stations", infos)
	}
	for _, s := range infos {
		if s.Name == "ws2" && s.ReservedFor != "ws1" {
			t.Fatalf("ws2 reservation lost across crash: %+v", s)
		}
		// The restored index seeds a fresh one-point trajectory.
		if h := s.IndexHistory; len(h) != 1 || math.Abs(h[0]-pre[s.Name]) > 1e-9 {
			t.Fatalf("%s index history after restart = %v, want [%v]", s.Name, h, pre[s.Name])
		}
	}
	// The restored reservation is enforced, not just displayed.
	if _, err := coord2.Reserve("ws2", "ws3", time.Minute); err == nil {
		t.Fatal("foreign re-reserve of a restored reservation accepted")
	}
	if _, err := coord2.Reserve("ws2", "ws1", time.Hour); err != nil {
		t.Fatalf("holder extend of restored reservation refused: %v", err)
	}
	if !coord2.CancelReservation("ws2") {
		t.Fatal("cancel of live restored reservation reported false")
	}
	// The journaled station addresses are live: one cycle polls the
	// still-running stations without any re-registration.
	coord2.Cycle()
	if coord2.Stats().Polls == 0 {
		t.Fatal("restored station addresses unusable — no poll succeeded")
	}
}

// TestReservationExpiryEdgesSurviveReplay pins the reservation boundary
// semantics and proves each edge round-trips through a restart:
// expiry exactly at the poll instant, cancel of an already-expired
// reservation, and re-reserve of a held station.
func TestReservationExpiryEdgesSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	p := newPool(t, []string{"ws1", "ws2", "ws3"}, Config{StateDir: dir})

	// Edge 1 — expiry exactly at the poll time: a reservation whose
	// `until` equals the poll instant is already over (until is
	// exclusive), while one nanosecond earlier it is still held.
	until3, err := p.coord.Reserve("ws3", "ws1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	p.coord.mu.Lock()
	holderBefore := p.coord.reservationForLocked("ws3", until3.Add(-time.Nanosecond))
	holderAt := p.coord.reservationForLocked("ws3", until3)
	p.coord.mu.Unlock()
	if holderBefore != "ws1" {
		t.Fatalf("holder 1ns before expiry = %q, want ws1", holderBefore)
	}
	if holderAt != "" {
		t.Fatalf("reservation still live at its own expiry instant: holder %q", holderAt)
	}

	// Edge 2 — cancelling an expired reservation prunes it but reports
	// false: the reservation had already ended on its own.
	if _, err := p.coord.Reserve("ws3", "ws1", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if p.coord.CancelReservation("ws3") {
		t.Fatal("cancel of expired reservation reported true")
	}
	if p.coord.CancelReservation("ws3") {
		t.Fatal("second cancel (entry already pruned) reported true")
	}

	// Edge 3 — re-reserve of a held station: refused for a different
	// holder, an extension for the same one.
	until2, err := p.coord.Reserve("ws2", "ws1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.coord.Reserve("ws2", "ws3", time.Minute); err == nil {
		t.Fatal("held station re-reserved by a different holder")
	}
	extended, err := p.coord.Reserve("ws2", "ws1", 2*time.Hour)
	if err != nil {
		t.Fatalf("holder extension refused: %v", err)
	}
	if !extended.After(until2) {
		t.Fatalf("extension did not move the deadline: %v -> %v", until2, extended)
	}

	// Crash and restart: the live ws2 reservation survives at millisecond
	// fidelity, the expired/cancelled ws3 one stays gone, and every edge
	// above still holds against the restored state.
	p.coord.Close()
	coord2, err := New(Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()

	if coord2.CancelReservation("ws3") {
		t.Fatal("expired reservation resurrected by the restart")
	}
	if _, err := coord2.Reserve("ws2", "ws3", time.Minute); err == nil {
		t.Fatal("restored reservation not enforced against a different holder")
	}
	restoredUntil := time.UnixMilli(extended.UnixMilli())
	coord2.mu.Lock()
	holderBefore = coord2.reservationForLocked("ws2", restoredUntil.Add(-time.Millisecond))
	holderAt = coord2.reservationForLocked("ws2", restoredUntil)
	coord2.mu.Unlock()
	if holderBefore != "ws1" {
		t.Fatalf("restored holder before expiry = %q, want ws1", holderBefore)
	}
	if holderAt != "" {
		t.Fatalf("restored reservation live at its expiry instant: holder %q", holderAt)
	}
	// ws3, freed before the crash, is reservable again.
	if _, err := coord2.Reserve("ws3", "ws2", time.Hour); err != nil {
		t.Fatalf("freed station not reservable after restart: %v", err)
	}
}

// TestCoordinatorReplayTruncationFuzz cuts the newest state slot at
// every byte offset — every torn write a crash can leave — and requires
// each cut to restore the previous state exactly, never more stations
// than were written; a full coordinator boots from sampled cut points.
func TestCoordinatorReplayTruncationFuzz(t *testing.T) {
	dir := t.TempDir()
	coord, err := New(Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Four saves: startup, two registrations, then the reservation, the
	// newest, in slot 4%2.
	coord.Register("ws1", "127.0.0.1:1")
	coord.Register("ws2", "127.0.0.1:2")
	if _, err := coord.Reserve("ws2", "ws1", time.Hour); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	newest := filepath.Join(dir, "state.0")
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	restore := func(sub string) persistState {
		j, rec, err := journal.Open(sub, journal.Config{})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		st, err := rebuildState(rec, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := restore(dir); len(st.Stations) != 2 || st.Reservations["ws2"].Holder != "ws1" {
		t.Fatalf("uncut state = %+v, want two stations and ws2 reserved", st)
	}

	var previous persistState
	for cut := 0; cut < len(raw); cut++ {
		sub := copyStateDir(t, dir)
		if err := os.Truncate(filepath.Join(sub, "state.0"), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st := restore(sub)
		if cut == 0 {
			previous = st
		}
		if len(st.Stations) != 2 || len(st.Reservations) != 0 || !reflect.DeepEqual(st, previous) {
			t.Fatalf("cut at byte %d: restored %+v, want the previous state %+v", cut, st, previous)
		}
		// Full coordinator boot at sampled offsets (every boot binds a
		// listener; doing all of them buys nothing over the restore above).
		if cut%16 == 0 {
			c2, err := New(Config{StateDir: sub, PollInterval: time.Hour, DialTimeout: time.Second})
			if err != nil {
				t.Fatalf("cut at byte %d: coordinator restart: %v", cut, err)
			}
			if n := len(c2.Stations()); n != 2 || c2.Stats().Incarnation != 2 {
				t.Fatalf("cut at byte %d: booted with %d stations, incarnation %d", cut, n, c2.Stats().Incarnation)
			}
			c2.Close()
		}
	}
}

// copyStateDir clones a journal state directory into a fresh temp dir.
func copyStateDir(t testing.TB, src string) string {
	t.Helper()
	dst, err := os.MkdirTemp(t.TempDir(), "cut")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestPoolChaosCrashMidWorkload is the end-to-end chaos run: a small
// pool works through a job queue while every station RPC crosses a
// fault-injecting proxy; mid-workload the coordinator is killed while a
// cycle is in flight and rebuilt from its state dir. No job may be lost,
// the reservation must hold across the crash, and the restored schedule
// indexes must match the pre-crash fairness state.
func TestPoolChaosCrashMidWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chaos run skipped with -short")
	}
	dir := t.TempDir()
	mkCoord := func() *Coordinator {
		c, err := New(Config{
			StateDir:     dir,
			PollInterval: time.Hour, // cycles driven manually
			DialTimeout:  time.Second,
			// Injected poll failures must not amputate the pool.
			DeadAfter: 1000,
			Policy:    policy.Config{MaxGrantsPerCycle: 2, MaxPreemptsPerCycle: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coord := mkCoord()
	t.Cleanup(func() { coord.Close() })

	names := []string{"ws1", "e1", "e2", "rsv"}
	stations := make(map[string]*schedd.Station, len(names))
	monitors := make(map[string]*machine.ScriptedMonitor, len(names))
	for _, name := range names {
		mon := machine.NewScriptedMonitor(false)
		st, err := schedd.New(schedd.Config{
			Name:    name,
			Monitor: mon,
			Starter: ru.StarterConfig{
				ScanInterval:  3 * time.Millisecond,
				SuspendGrace:  20 * time.Millisecond,
				StepsPerSlice: 5_000,
				SliceDelay:    500 * time.Microsecond,
			},
			DialTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		stations[name] = st
		monitors[name] = mon
		// All coordinator→station and schedd→exec traffic crosses the
		// fault proxy: grants carry the proxy address as ExecAddr too.
		coord.Register(name, faultProxy(t, st.Addr()))
	}
	monitors["ws1"].SetActive(true) // owner busy at home: jobs must go remote
	if _, err := coord.Reserve("rsv", "e1", time.Hour); err != nil {
		t.Fatal(err)
	}

	const jobCount = 4
	ids := make([]string, 0, jobCount)
	for i := 0; i < jobCount; i++ {
		id, err := stations["ws1"].Submit("alice", cvm.SumProgram(200_000), 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	completed := func() int {
		n := 0
		for _, id := range ids {
			if s, err := stations["ws1"].Job(id); err == nil && s.State == proto.JobCompleted {
				n++
			}
		}
		return n
	}

	// Phase 1: run under faults until real progress, then crash.
	deadline := time.Now().Add(60 * time.Second)
	for completed() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no job completed before the crash point; stats %+v", coord.Stats())
		}
		coord.Cycle()
		time.Sleep(3 * time.Millisecond)
	}
	pre := make(map[string]float64, len(names))
	for _, name := range names {
		pre[name] = coord.Index(name)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.Cycle()
	}()
	time.Sleep(500 * time.Microsecond)
	coord.Close() // kill while that cycle is in flight
	wg.Wait()

	// Phase 2: rebuild from the state dir.
	coord2 := mkCoord()
	t.Cleanup(func() { coord2.Close() })
	if got := coord2.Stats().Incarnation; got != 2 {
		t.Fatalf("incarnation after restart = %d, want 2", got)
	}
	infos := coord2.Stations()
	if len(infos) != len(names) {
		t.Fatalf("restored %d stations, want %d: %+v", len(infos), len(names), infos)
	}
	rsvSeen := false
	for _, s := range infos {
		if s.Name == "rsv" {
			rsvSeen = true
			if s.ReservedFor != "e1" {
				t.Fatalf("reservation lost across crash: %+v", s)
			}
		}
	}
	if !rsvSeen {
		t.Fatal("rsv station missing after restart")
	}
	// The killed in-flight cycle may have saved once more after `pre`
	// was captured; allow at most that one cycle of index movement.
	for _, name := range names {
		if got := coord2.Index(name); math.Abs(got-pre[name]) > 2.0 {
			t.Fatalf("%s schedule index restored to %v, want ≈%v", name, got, pre[name])
		}
	}

	// Drive to completion through the same faulty proxies: nothing lost.
	deadline = time.Now().Add(120 * time.Second)
	for completed() < jobCount {
		if time.Now().After(deadline) {
			t.Fatalf("jobs lost after crash: %d/%d complete; queue %+v",
				completed(), jobCount, stations["ws1"].Queue())
		}
		coord2.Cycle()
		time.Sleep(3 * time.Millisecond)
	}
	for _, id := range ids {
		s, err := stations["ws1"].Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if s.State != proto.JobCompleted {
			t.Fatalf("job %s = %+v", id, s)
		}
		if s.ExecHost == "rsv" {
			t.Fatalf("job %s ran on rsv, reserved for e1 the whole run: %+v", id, s)
		}
	}
}

// faultProxy forwards TCP connections to target, wrapping the
// coordinator-facing side of every other connection in a FaultConn that
// severs the stream mid-frame after a byte budget — the classic
// partial-write crash. The schedule is deterministic per proxy.
func faultProxy(t *testing.T, target string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var n atomic.Int64
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			down, err := net.Dial("tcp", target)
			if err != nil {
				client.Close()
				continue
			}
			conn := net.Conn(client)
			switch n.Add(1) % 4 {
			case 2: // dies mid-conversation
				fc := wire.NewFaultConn(client)
				fc.SetPlan(wire.FaultPlan{DropAfterBytes: 700})
				conn = fc
			case 0: // dies almost immediately, likely mid-frame
				fc := wire.NewFaultConn(client)
				fc.SetPlan(wire.FaultPlan{DropAfterBytes: 150})
				conn = fc
			}
			go proxyPipe(conn, down)
			go proxyPipe(down, conn)
		}
	}()
	return ln.Addr().String()
}

func proxyPipe(dst, src net.Conn) {
	_, _ = io.Copy(dst, src)
	dst.Close()
	src.Close()
}
