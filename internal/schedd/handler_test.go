package schedd

import (
	"context"
	"strings"
	"testing"
	"time"

	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/wire"
)

// dial connects a test client to the station.
func dial(t *testing.T, st *Station) *wire.Peer {
	t.Helper()
	peer, err := wire.Dial(st.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	return peer
}

func call(t *testing.T, peer *wire.Peer, msg any) any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, msg)
	if err != nil {
		t.Fatalf("call %T: %v", msg, err)
	}
	return reply
}

func TestWireSubmitFromSource(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	peer := dial(t, st)
	reply := call(t, peer, proto.SubmitRequest{
		Owner:  "alice",
		Name:   "tiny",
		Source: ".text\nstart:\n HALT 0\n",
	})
	sr, ok := reply.(proto.SubmitReply)
	if !ok || sr.JobID == "" {
		t.Fatalf("reply = %+v", reply)
	}
	status, err := st.Job(sr.JobID)
	if err != nil || status.Program != "tiny" {
		t.Fatalf("job = %+v err %v", status, err)
	}
}

func TestWireSubmitFromProgramBlob(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	peer := dial(t, st)
	reply := call(t, peer, proto.SubmitRequest{
		Owner:       "bob",
		ProgramBlob: proto.EncodeProgram(cvm.SumProgram(77)),
		Priority:    4,
	})
	sr := reply.(proto.SubmitReply)
	status, err := st.Job(sr.JobID)
	if err != nil || status.Priority != 4 || status.Owner != "bob" {
		t.Fatalf("job = %+v err %v", status, err)
	}
}

func TestWireSubmitRejectsBadInput(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	peer := dial(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const tiny = ".text\nstart:\n HALT 0\n"
	// A stack the station cannot allocate is the submitter's error, not
	// the station's end: the last submit below still succeeds.
	if _, err := peer.Call(ctx, proto.SubmitRequest{Owner: "x", Source: tiny, StackWords: 1 << 62}); err == nil ||
		!strings.Contains(err.Error(), "stack") {
		t.Fatalf("huge stack: err = %v, want a stack-size refusal", err)
	}
	if _, err := peer.Call(ctx, proto.SubmitRequest{Owner: "x"}); err == nil {
		t.Fatal("empty submit accepted")
	}
	if _, err := peer.Call(ctx, proto.SubmitRequest{Owner: "x", Source: "FROB\n"}); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := peer.Call(ctx, proto.SubmitRequest{Owner: "x", ProgramBlob: []byte("junk")}); err == nil {
		t.Fatal("bad blob accepted")
	}
	call(t, peer, proto.SubmitRequest{Owner: "x", Source: tiny})
}

func TestWireQueueRemoveWaitHistory(t *testing.T) {
	ws1 := newStation(t, "ws1", nil, nil)
	ws2 := newStation(t, "ws2", nil, nil)
	peer := dial(t, ws1)

	submit := call(t, peer, proto.SubmitRequest{
		Owner: "alice", Name: "sum", Source: "",
		ProgramBlob: proto.EncodeProgram(cvm.SumProgram(4000)),
	}).(proto.SubmitReply)

	queue := call(t, peer, proto.QueueRequest{}).(proto.QueueReply)
	if queue.Station != "ws1" || len(queue.Jobs) != 1 {
		t.Fatalf("queue = %+v", queue)
	}

	// Run it and wait over the wire.
	if _, err := ws1.PlaceNext("ws2", ws2.Addr()); err != nil {
		t.Fatal(err)
	}
	wait := call(t, peer, proto.WaitRequest{JobID: submit.JobID}).(proto.WaitReply)
	if !wait.Found || wait.Status.State != proto.JobCompleted {
		t.Fatalf("wait = %+v", wait)
	}
	if strings.TrimSpace(wait.Status.Stdout) != "8002000" {
		t.Fatalf("stdout = %q", wait.Status.Stdout)
	}

	// History over the wire: submit → place → complete.
	hist := call(t, peer, proto.HistoryRequest{JobID: submit.JobID}).(proto.HistoryReply)
	if len(hist.Events) != 3 {
		t.Fatalf("history = %+v", hist.Events)
	}

	// Remove (already terminal — still reported true).
	rm := call(t, peer, proto.RemoveRequest{JobID: submit.JobID}).(proto.RemoveReply)
	if !rm.Removed {
		t.Fatalf("remove = %+v", rm)
	}
	rm = call(t, peer, proto.RemoveRequest{JobID: "ws1/999"}).(proto.RemoveReply)
	if rm.Removed {
		t.Fatal("unknown job removed")
	}
}

func TestWireWaitUnknownJob(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	peer := dial(t, st)
	wait := call(t, peer, proto.WaitRequest{JobID: "ws1/404"}).(proto.WaitReply)
	if wait.Found {
		t.Fatalf("wait = %+v", wait)
	}
}

func TestWireUnknownMessageRejected(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	peer := dial(t, st)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := peer.Call(ctx, proto.RegisterReply{}); err == nil {
		t.Fatal("station accepted a message outside its protocol")
	}
}

func TestWireHistoryLimit(t *testing.T) {
	st := newStation(t, "ws1", nil, nil)
	for i := 0; i < 5; i++ {
		if _, err := st.Submit("a", cvm.SpinProgram(int64(i+1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	peer := dial(t, st)
	hist := call(t, peer, proto.HistoryRequest{Limit: 2}).(proto.HistoryReply)
	if len(hist.Events) != 2 {
		t.Fatalf("limited history = %d events", len(hist.Events))
	}
}
