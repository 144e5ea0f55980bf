package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
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
	// Nothing was written, so the stream is still in sync and the conn
	// stays up; but the stall persists, so the next send fails the same
	// way.
	if err := conn.Send(Envelope{ID: 2, Kind: KindPing}); err == nil {
		t.Fatal("Send succeeded on a connection whose writes still stall")
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

// A stalled frame whose head arrives in the same Read as a whole
// earlier frame still fails within the frame timeout: the deadline is
// armed once the stalled frame needs a second Read, whether its head
// is part of the length word or past it.
func TestRecvStallAfterWholeFrameFailsByFrameTimeout(t *testing.T) {
	whole := encodeFrame(t, Envelope{ID: 1, Kind: KindPing})
	for _, head := range [][]byte{{0x00, 0x00}, {0x00, 0x00, 0x00, 0x09, 0x02}} {
		local, remote := net.Pipe()
		conn := NewConn(local)
		conn.timeout = 50 * time.Millisecond
		go remote.Write(append(append([]byte(nil), whole...), head...)) //nolint:errcheck // then silence
		if env, err := conn.Recv(); err != nil || env.ID != 1 {
			t.Fatalf("head %x: whole frame = %+v, %v", head, env, err)
		}
		failed := make(chan error, 1)
		go func() {
			_, err := conn.Recv()
			failed <- err
		}()
		select {
		case err := <-failed:
			if err == nil {
				t.Fatalf("head %x: Recv of a half-delivered frame succeeded", head)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("head %x: Recv still blocked after 2s; the 50ms frame deadline never fired", head)
		}
		conn.Close()
		remote.Close()
	}
}

// An idle wait longer than the frame timeout, after a frame split
// across Reads armed the deadline, does not fail: the deadline is
// cleared before the wait.
func TestRecvIdleAfterSplitFrameDeadlineCleared(t *testing.T) {
	local, remote := net.Pipe()
	defer remote.Close()
	receiver := NewConn(local)
	defer receiver.Close()
	receiver.timeout = 40 * time.Millisecond
	first := encodeFrame(t, Envelope{ID: 1, Kind: KindPing})
	second := encodeFrame(t, Envelope{ID: 2, Kind: KindPing})
	go func() {
		remote.Write(first[:2]) //nolint:errcheck
		time.Sleep(10 * time.Millisecond)
		remote.Write(first[2:]) //nolint:errcheck
		time.Sleep(150 * time.Millisecond)
		remote.Write(second) //nolint:errcheck
	}()
	for id := uint64(1); id <= 2; id++ {
		if env, err := receiver.Recv(); err != nil || env.ID != id {
			t.Fatalf("frame %d: %+v, %v", id, env, err)
		}
	}
}

// Frames that arrive whole cost one Read each and set no deadline;
// frames queued together cost one Read between them. A frame split
// across Reads arms the deadline once, even when the previous frame
// armed it too, and an armed deadline is cleared only before an idle
// wait.
func TestRecvWholeFramesOneReadNoDeadline(t *testing.T) {
	frames := [][]byte{
		encodeFrame(t, Envelope{ID: 1, Kind: KindPing}),
		encodeFrame(t, Envelope{ID: 2, Kind: KindRequest, Msg: note{Text: strings.Repeat("x", 300)}}),
		encodeFrame(t, Envelope{ID: 3, Kind: KindReply, Msg: blobMsg{Data: make([]byte, 64)}}),
	}
	stream := bytes.Join(frames, nil)
	cases := []struct {
		name                string
		chunk               func(i int) int
		reads, arms, clears int
	}{
		{"one frame per read", func(i int) int { return len(frames[i-1]) }, 3, 0, 0},
		{"all in one read", nil, 1, 0, 0},
		// 9, 312 and 74 bytes: three-byte Reads end at each frame's end,
		// four-byte ones read each frame's head with the frame before.
		{"three bytes per read", func(int) int { return 3 }, (len(stream) + 2) / 3, 3, 2},
		{"four bytes per read", func(int) int { return 4 }, (len(stream) + 3) / 4, 3, 0},
	}
	for _, tc := range cases {
		raw := &byteConn{r: bytes.NewReader(stream), chunk: tc.chunk}
		conn := NewConn(raw)
		for id := uint64(1); id <= 3; id++ {
			if env, err := conn.Recv(); err != nil || env.ID != id {
				t.Fatalf("%s: frame %d: %+v, %v", tc.name, id, env, err)
			}
		}
		if raw.reads != tc.reads || raw.arms != tc.arms || raw.clears != tc.clears {
			t.Errorf("%s: %d reads, %d deadlines armed, %d cleared; want %d, %d, %d",
				tc.name, raw.reads, raw.arms, raw.clears, tc.reads, tc.arms, tc.clears)
		}
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

// Frames carry no checksum, so a flipped bit is caught only if it breaks
// the frame or its decode. Either way the reader stays sound: each Recv of
// a corrupted stream fails, closing the connection, or decodes to some
// envelope, and the reader never panics or hangs.
func TestFaultCorruptionFailsRecvOrDecodes(t *testing.T) {
	var decoded, altered, failed int
	within(t, 20*time.Second, func() {
		for seed := uint64(1); seed <= 64; seed++ {
			local, remote := net.Pipe()
			fc := NewFaultConn(local)
			fc.SetPlan(FaultPlan{CorruptProb: 1, Seed: seed})
			sender := NewConn(fc)
			receiver := NewConn(remote)
			receiver.timeout = 500 * time.Millisecond
			go func() {
				for i := 1; i <= 4; i++ {
					sender.Send(Envelope{ID: uint64(i), Kind: KindRequest, Msg: ping{N: i}}) //nolint:errcheck // a failed send ends the stream
				}
				sender.Close()
			}()
			for {
				env, err := receiver.Recv()
				if errors.Is(err, io.EOF) {
					break // the stream ended between frames
				}
				if err != nil {
					failed++
					// A closed net.Pipe end reads io.ErrClosedPipe; one whose
					// peer closed reads io.EOF.
					if _, rerr := remote.Read(make([]byte, 1)); !errors.Is(rerr, io.ErrClosedPipe) {
						t.Errorf("seed %d: Recv failed (%v) and left the connection open", seed, err)
					}
					break
				}
				decoded++
				if p, ok := env.Msg.(ping); !ok || env.Kind != KindRequest || env.ID != uint64(p.N) {
					altered++
				}
			}
			receiver.Close()
		}
	})
	t.Logf("%d envelopes decoded (%d of them altered), %d reads failed", decoded, altered, failed)
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
