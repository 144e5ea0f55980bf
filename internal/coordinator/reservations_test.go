package coordinator

import (
	"context"
	"strings"
	"testing"
	"time"

	"condor/internal/cvm"
	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/wire"
)

func TestReserveValidation(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	if _, err := p.coord.Reserve("nope", "ws1", time.Hour); err == nil {
		t.Fatal("unknown station reserved")
	}
	if _, err := p.coord.Reserve("ws2", "nope", time.Hour); err == nil {
		t.Fatal("unknown holder accepted")
	}
	if _, err := p.coord.Reserve("ws2", "ws1", 0); err == nil {
		t.Fatal("zero duration accepted")
	}
	until, err := p.coord.Reserve("ws2", "ws1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if until.Before(time.Now().Add(50 * time.Minute)) {
		t.Fatalf("until = %v", until)
	}
	// A different holder is refused while live; the same holder extends.
	if _, err := p.coord.Reserve("ws2", "ws2", time.Hour); err == nil {
		t.Fatal("conflicting reservation accepted")
	}
	if _, err := p.coord.Reserve("ws2", "ws1", 2*time.Hour); err != nil {
		t.Fatalf("extension refused: %v", err)
	}
	if !p.coord.CancelReservation("ws2") {
		t.Fatal("cancel reported nothing to cancel")
	}
	if p.coord.CancelReservation("ws2") {
		t.Fatal("double cancel reported success")
	}
}

func TestReservationBlocksOtherStations(t *testing.T) {
	// ws2 is the only idle machine and is reserved for ws3; ws1's job
	// must not be placed there, while ws3's must.
	p := newPool(t, []string{"ws1", "ws2", "ws3"}, Config{})
	p.monitors["ws1"].SetActive(true)
	p.monitors["ws3"].SetActive(true)
	if _, err := p.coord.Reserve("ws2", "ws3", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := p.stations["ws1"].Submit("u1", cvm.SumProgram(10_000), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.coord.Cycle()
		time.Sleep(2 * time.Millisecond)
	}
	if used := p.coord.Stats().GrantsUsed; used != 0 {
		t.Fatalf("reserved machine granted to non-holder (%d grants)", used)
	}
	// The holder's job goes right through.
	holderJob, err := p.stations["ws3"].Submit("u3", cvm.SumProgram(10_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.cycleUntil(t, 20*time.Second, func() bool {
		st, err := p.stations["ws3"].Job(holderJob)
		return err == nil && st.State == proto.JobCompleted
	})
	st, _ := p.stations["ws3"].Job(holderJob)
	if st.ExecHost != "ws2" {
		t.Fatalf("holder's job ran on %q, want the reserved ws2", st.ExecHost)
	}
}

func TestReservationEvictsForeignJob(t *testing.T) {
	// ws2 runs ws1's long job; then ws3 reserves ws2. The coordinator
	// must vacate the foreign job to honour the reservation.
	p := newPool(t, []string{"ws1", "ws2", "ws3"}, Config{})
	p.monitors["ws1"].SetActive(true)
	p.monitors["ws3"].SetActive(true)
	jobID, err := p.stations["ws1"].Submit("u1", cvm.SumProgram(500_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.cycleUntil(t, 20*time.Second, func() bool {
		st, err := p.stations["ws1"].Job(jobID)
		return err == nil && st.State == proto.JobRunning
	})
	if _, err := p.coord.Reserve("ws2", "ws3", time.Hour); err != nil {
		t.Fatal(err)
	}
	p.cycleUntil(t, 20*time.Second, func() bool {
		st, err := p.stations["ws1"].Job(jobID)
		return err == nil && st.State == proto.JobIdle && st.Checkpoints > 0
	})
	// The eviction is booked like any preemption: in the history and
	// charged to the evicted job's home.
	var evicted bool
	for _, e := range p.coord.Events().Recent(0) {
		if e.Kind == eventlog.KindPreempt && e.Station == "ws2" && e.Job == jobID &&
			e.Detail == "machine reserved for ws3" {
			evicted = true
		}
	}
	if !evicted {
		t.Error("no preempt event on ws2 reading \"machine reserved for ws3\"")
	}
	if got := p.coord.Accounting().AllocSnapshot()["ws1"].Preempts; got < 1 {
		t.Errorf("ws1's allocation row counts %d preempts, want at least 1", got)
	}
}

// TestReservationAndOutrankPreemptOnce: when §2.4 picks as its victim a
// reserved machine that the reservation also evicts, the machine gets
// one vacate order a cycle, booked once in the stats, the ledger and
// the history.
func TestReservationAndOutrankPreemptOnce(t *testing.T) {
	coord, scripted := healthPool(t, []string{"e", "h", "v"}, Config{DeadAfter: 100})
	scripted["e"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationClaimed
		r.ForeignJob = "v/1"
		r.ForeignOwnerStation = "v"
	})
	scripted["h"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationOwner
		r.WaitingJobs = 1
	})
	scripted["v"].set(true, func(r *proto.PollReply) { r.State = proto.StationOwner })
	if _, err := coord.Reserve("e", "h", time.Hour); err != nil {
		t.Fatal(err)
	}
	const cycles = 4
	for i := 0; i < cycles; i++ {
		before := coord.Stats().Preempts
		coord.Cycle()
		if got := coord.Stats().Preempts - before; got != 1 {
			t.Fatalf("cycle %d sent %d vacate orders to e, want 1", i, got)
		}
	}
	var events, outranked int
	for _, e := range coord.Events().Recent(0) {
		if e.Kind == eventlog.KindPreempt {
			events++
			if e.Detail == "up-down: h outranks v" {
				outranked++
			}
		}
	}
	if outranked == 0 {
		t.Fatal("h never outranked v: the orders never overlapped")
	}
	if events != cycles {
		t.Errorf("%d preempt events, want %d", events, cycles)
	}
	if got := coord.Accounting().AllocSnapshot()["v"].Preempts; got != cycles {
		t.Errorf("v's allocation row counts %d preempts, want %d", got, cycles)
	}
}

func TestReservationExpires(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	p.monitors["ws1"].SetActive(true)
	if _, err := p.coord.Reserve("ws2", "ws1", 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	// Expired: another station may take it over.
	if _, err := p.coord.Reserve("ws2", "ws2", time.Hour); err != nil {
		t.Fatalf("expired reservation still blocking: %v", err)
	}
}

func TestReservationOverWire(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	peer, err := wire.Dial(p.coord.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.ReserveRequest{
		Station: "ws2", Holder: "ws1", DurationMillis: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := reply.(proto.ReserveReply)
	if !ok || !rr.OK || rr.UntilUnixMillis == 0 {
		t.Fatalf("reply = %+v", reply)
	}
	// Visible in the pool table.
	found := false
	for _, s := range p.coord.Stations() {
		if s.Name == "ws2" && s.ReservedFor == "ws1" {
			found = true
		}
	}
	if !found {
		t.Fatal("reservation not visible in pool table")
	}
	// Refusal path carries a reason, not an error.
	reply, err = peer.Call(ctx, proto.ReserveRequest{
		Station: "ws2", Holder: "ws2", DurationMillis: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr := reply.(proto.ReserveReply); rr.OK || !strings.Contains(rr.Reason, "reserved") {
		t.Fatalf("conflict reply = %+v", rr)
	}
	// Cancel over the wire.
	reply, err = peer.Call(ctx, proto.CancelReservationRequest{Station: "ws2"})
	if err != nil {
		t.Fatal(err)
	}
	if cr := reply.(proto.CancelReservationReply); !cr.Cancelled {
		t.Fatalf("cancel reply = %+v", cr)
	}
}
