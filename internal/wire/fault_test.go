package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConns returns a Conn over a FaultConn on the local side of a
// net.Pipe, plus the remote raw end.
func pipeConns(t *testing.T) (*Conn, *FaultConn, net.Conn) {
	t.Helper()
	local, remote := net.Pipe()
	fc := NewFaultConn(local)
	conn := NewConn(fc)
	t.Cleanup(func() { conn.Close(); remote.Close() })
	return conn, fc, remote
}

func TestSendStalledWriterFailsByDeadline(t *testing.T) {
	conn, fc, _ := pipeConns(t)
	conn.timeout = 50 * time.Millisecond
	fc.SetPlan(FaultPlan{StallWrites: true})
	start := time.Now()
	err := conn.Send(Envelope{ID: 1, Kind: KindPing})
	if err == nil {
		t.Fatal("Send to a stalled peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Send blocked %v; the 50ms write deadline never fired", elapsed)
	}
	// The half-written stream is poisoned: the conn must now be closed.
	if err := conn.Send(Envelope{ID: 2, Kind: KindPing}); err == nil {
		t.Fatal("Send succeeded on a connection poisoned by a write timeout")
	}
}

func TestSendWithoutDeadlineStillSucceeds(t *testing.T) {
	conn, _, remote := pipeConns(t)
	go io.Copy(io.Discard, remote) //nolint:errcheck // drain
	if err := conn.Send(Envelope{ID: 1, Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
}

func TestSendPartialWriteClosesConn(t *testing.T) {
	conn, fc, remote := pipeConns(t)
	go io.Copy(io.Discard, remote) //nolint:errcheck // drain what does arrive
	fc.SetPlan(FaultPlan{WriteCap: 2})
	if err := conn.Send(Envelope{ID: 1, Kind: KindPing}); err == nil {
		t.Fatal("Send with partial writes succeeded")
	}
	if err := conn.Send(Envelope{ID: 2, Kind: KindPing}); err == nil {
		t.Fatal("Send succeeded after a partial frame desynchronized the stream")
	}
}

func TestSendResetFailsImmediately(t *testing.T) {
	conn, fc, _ := pipeConns(t)
	fc.SetPlan(FaultPlan{Reset: true})
	start := time.Now()
	err := conn.Send(Envelope{ID: 1, Kind: KindPing})
	if !errors.Is(err, ErrFaultReset) {
		t.Fatalf("err = %v, want ErrFaultReset", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("reset took %v", elapsed)
	}
}

func TestSendDropMidFrameSeversConnection(t *testing.T) {
	conn, fc, remote := pipeConns(t)
	go io.Copy(io.Discard, remote)           //nolint:errcheck // drain the leading bytes
	fc.SetPlan(FaultPlan{DropAfterBytes: 6}) // header (4) + 2 payload bytes
	if err := conn.Send(Envelope{ID: 1, Kind: KindPing}); !errors.Is(err, ErrFaultReset) {
		t.Fatalf("err = %v, want ErrFaultReset mid-frame", err)
	}
}

func TestRecvMidFrameStallFailsByFrameTimeout(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	conn := NewConn(local)
	defer conn.Close()
	conn.timeout = 50 * time.Millisecond
	go remote.Write([]byte{0x00, 0x00}) //nolint:errcheck // 2 of 4 header bytes, then silence
	start := time.Now()
	if _, err := conn.Recv(); err == nil {
		t.Fatal("Recv of a half-delivered frame succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Recv blocked %v; the 50ms frame deadline never fired", elapsed)
	}
}

func TestRecvIdleConnectionNotTimedOut(t *testing.T) {
	local, remote := net.Pipe()
	receiver := NewConn(local)
	sender := NewConn(remote)
	defer receiver.Close()
	defer sender.Close()
	receiver.timeout = 40 * time.Millisecond
	go func() {
		// Far longer than the frame timeout: idleness between frames must
		// not trip the deadline.
		time.Sleep(150 * time.Millisecond)
		sender.Send(Envelope{ID: 7, Kind: KindPing}) //nolint:errcheck
	}()
	env, err := receiver.Recv()
	if err != nil {
		t.Fatalf("idle connection timed out: %v", err)
	}
	if env.ID != 7 {
		t.Fatalf("env = %+v", env)
	}
}

func TestRecvConsecutiveFramesRearmDeadline(t *testing.T) {
	local, remote := net.Pipe()
	receiver := NewConn(local)
	sender := NewConn(remote)
	defer receiver.Close()
	defer sender.Close()
	receiver.timeout = 50 * time.Millisecond
	go func() {
		for i := uint64(1); i <= 3; i++ {
			sender.Send(Envelope{ID: i, Kind: KindPing}) //nolint:errcheck
			time.Sleep(80 * time.Millisecond)            // idle gap > frame timeout
		}
	}()
	for i := uint64(1); i <= 3; i++ {
		env, err := receiver.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.ID != i {
			t.Fatalf("frame %d: env = %+v", i, env)
		}
	}
}

func TestPeerCallAgainstStalledConnFailsFast(t *testing.T) {
	// End-to-end through a Peer: a peer whose writes stall must fail
	// Call via the write deadline, not hang holding writeMu forever.
	local, remote := net.Pipe()
	defer remote.Close()
	fc := NewFaultConn(local)
	conn := NewConn(fc)
	conn.timeout = 50 * time.Millisecond
	fc.SetPlan(FaultPlan{StallWrites: true, StallReads: true})
	peer := NewPeer(conn, nil)
	defer peer.Close()
	done := make(chan error, 1)
	go func() {
		_, err := peer.Call(context.Background(), ping{N: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Call over a stalled connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call over a stalled connection hung past the write deadline")
	}
}

func TestFaultLatencyDelaysWrites(t *testing.T) {
	conn, fc, remote := pipeConns(t)
	go io.Copy(io.Discard, remote) //nolint:errcheck // drain
	fc.SetPlan(FaultPlan{LatencyMin: 40 * time.Millisecond, LatencyMax: 60 * time.Millisecond, Seed: 7})
	start := time.Now()
	if err := conn.Send(Envelope{ID: 1, Kind: KindPing}); err != nil {
		t.Fatal(err)
	}
	// A frame is several Write calls (length prefix + payload); each pays
	// the latency, so the floor is at least one LatencyMin.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("Send took %v, want ≥ 40ms of injected latency", elapsed)
	}
}

func TestFaultCorruptionFailsLoudly(t *testing.T) {
	// A corrupted frame must surface as an error on some call — never as
	// a silently delivered wrong payload.
	local, remote := net.Pipe()
	fc := NewFaultConn(local)
	sender := NewConn(fc)
	receiver := NewConn(remote)
	defer sender.Close()
	defer receiver.Close()
	sender.timeout = 200 * time.Millisecond
	receiver.timeout = 500 * time.Millisecond
	fc.SetPlan(FaultPlan{CorruptProb: 1, Seed: 42})
	go func() {
		for i := uint64(1); i <= 4; i++ {
			sender.Send(Envelope{ID: i, Kind: KindPing}) //nolint:errcheck
		}
	}()
	for {
		env, err := receiver.Recv()
		if err != nil {
			return // corruption detected: decode failure, bad prefix, or timeout
		}
		if env.Kind != KindPing {
			return // decoded garbage that is visibly not what was sent
		}
		// A flip can land in padding and still decode; keep reading —
		// with CorruptProb 1 and multi-write frames, a detectable flip
		// arrives quickly.
	}
}

func TestFaultFlapScheduleBlackholesAndHeals(t *testing.T) {
	conn, fc, remote := pipeConns(t)
	go io.Copy(io.Discard, remote) //nolint:errcheck // drain
	conn.timeout = 30 * time.Millisecond
	// Down first is impossible (phase starts up), so use a short up
	// phase: writes land in the up window or fail in the down window,
	// and after a full period they must succeed again.
	fc.SetPlan(FaultPlan{FlapUp: 50 * time.Millisecond, FlapDown: 50 * time.Millisecond})
	if err := conn.Send(Envelope{ID: 1, Kind: KindPing}); err != nil {
		t.Fatalf("send during up phase: %v", err)
	}
	time.Sleep(60 * time.Millisecond) // into the down phase
	if err := conn.Send(Envelope{ID: 2, Kind: KindPing}); err == nil {
		t.Fatal("send during down phase succeeded")
	}
}

func TestFaultSetPlanWakesStalledOperation(t *testing.T) {
	// A stalled write must heal the moment the plan is cleared — not wait
	// out its frame timeout.
	conn, fc, remote := pipeConns(t)
	go io.Copy(io.Discard, remote) //nolint:errcheck // drain
	fc.SetPlan(FaultPlan{StallWrites: true})
	done := make(chan error, 1)
	go func() {
		done <- conn.Send(Envelope{ID: 1, Kind: KindPing})
	}()
	select {
	case err := <-done:
		t.Fatalf("send completed while stalled: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.SetPlan(FaultPlan{}) // heal
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send after heal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled send never woke after the plan was cleared")
	}
}
