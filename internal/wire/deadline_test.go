package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// silentPeer listens on loopback and returns the address plus a channel
// yielding the one connection it accepts. Nothing reads from that
// connection until the test does, so a large enough frame written to it
// fills both sockets' buffers and stalls mid-write.
func silentPeer(t *testing.T) (string, <-chan net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), accepted
}

// prefixConn replays bytes already read off a connection before reading
// the rest of it.
type prefixConn struct {
	net.Conn
	r io.Reader
}

func (c prefixConn) Read(b []byte) (int, error) { return c.r.Read(b) }

// boundedCall is a Call bounded to 100 ms, either by its context's
// deadline or by CallWithin's duration.
type boundedCall func(peer *Peer, msg any) error

func callCtx100ms(peer *Peer, msg any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := peer.Call(ctx, msg)
	return err
}

func callWithin100ms(peer *Peer, msg any) error {
	_, err := peer.CallWithin(context.Background(), msg, 100*time.Millisecond)
	return err
}

// A Call's deadline bounds writing its request, not only the wait for
// the reply: against a peer that accepts and never reads, a 32 MiB
// request must give up at the caller's 100ms deadline rather than sit in
// the write for the frame timeout.
func TestCallDeadlineBoundsStalledWrite(t *testing.T) { stalledWrite(t, callCtx100ms) }

// The same with the bound given as CallWithin's duration.
func TestCallWithinBoundsStalledWrite(t *testing.T) { stalledWrite(t, callWithin100ms) }

func stalledWrite(t *testing.T, call boundedCall) {
	addr, accepted := silentPeer(t)
	peer, err := Dial(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	raw := <-accepted
	defer raw.Close()

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- call(peer, blobMsg{Data: make([]byte, 32<<20)}) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotSent) {
			t.Fatalf("err = %v, want ErrNotSent", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("Call returned %v after its 100ms deadline", elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Call still blocked in its write 3s after a 100ms deadline")
	}
}

// A Call whose deadline passes while another frame holds the write side
// never reaches the wire: it fails with ErrNotSent and the context's
// error, and the connection stays up for the next Call.
func TestCallDeadlineWhileWriteSideBusyKeepsConn(t *testing.T) {
	writeSideBusy(t, callCtx100ms)
}

// The same with the bound given as CallWithin's duration: the slot's
// timer, not only a context, ends the wait for the write side.
func TestCallWithinWhileWriteSideBusyKeepsConn(t *testing.T) {
	writeSideBusy(t, callWithin100ms)
}

func writeSideBusy(t *testing.T, call boundedCall) {
	addr, accepted := silentPeer(t)
	peer, err := Dial(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	raw := <-accepted
	defer raw.Close()

	notified := make(chan error, 1)
	go func() { notified <- peer.Notify(blobMsg{Data: make([]byte, 16<<20)}) }()
	// One byte of the big frame has arrived, so its write holds the write
	// side, and with nothing reading it cannot finish.
	var first [1]byte
	if _, err := io.ReadFull(raw, first[:]); err != nil {
		t.Fatal(err)
	}

	called := make(chan error, 1)
	go func() { called <- call(peer, ping{N: 1}) }()
	select {
	case err := <-called:
		if !errors.Is(err, ErrNotSent) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrNotSent and context.DeadlineExceeded", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Call still waiting for the write side 3s after a 100ms deadline")
	}
	if peer.Dead() {
		t.Fatal("a Call that never wrote closed the connection")
	}

	// Start reading: the big frame drains, and the connection serves the
	// next Call.
	remote := NewPeer(NewConn(prefixConn{raw, io.MultiReader(bytes.NewReader(first[:]), raw)}),
		func(_ context.Context, msg any) (any, error) {
			if p, ok := msg.(ping); ok {
				return pong{N: p.N + 1}, nil
			}
			return nil, nil
		})
	defer remote.Close()
	if err := <-notified; err != nil {
		t.Fatalf("big frame: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, ping{N: 2})
	if err != nil {
		t.Fatalf("next Call on the same connection: %v", err)
	}
	if reply.(pong).N != 3 {
		t.Fatalf("reply = %#v", reply)
	}
}

// TestUnwrittenWriteContextDeadlineKeepsPeer is the context's twin of
// TestUnwrittenWriteTimeoutKeepsPeer: a Call whose context deadline, not
// a bound of its own, ends its write before the first byte is taken fails
// with ErrNotSent and context.DeadlineExceeded, so Retryable treats it as
// final, and the peer stays up.
func TestUnwrittenWriteContextDeadlineKeepsPeer(t *testing.T) {
	local, remote := net.Pipe()
	peer := NewPeer(NewConn(local), nil)
	defer peer.Close()
	defer remote.Close()

	// Nothing reads remote yet, so the write waits until the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_, err := peer.Call(ctx, ping{N: 1})
	cancel()
	if !errors.Is(err, ErrNotSent) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrNotSent and context.DeadlineExceeded", err)
	}
	if Retryable(err) {
		t.Fatalf("Retryable(%v) = true for a call whose deadline passed", err)
	}
	if peer.Dead() {
		t.Fatal("a write that timed out before its first byte closed the connection")
	}

	server := NewPeer(NewConn(remote), func(_ context.Context, msg any) (any, error) {
		return pong{N: msg.(ping).N + 1}, nil
	})
	defer server.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if reply, err := peer.Call(ctx, ping{N: 2}); err != nil || reply.(pong).N != 3 {
		t.Fatalf("next Call on the same peer: %#v, %v", reply, err)
	}
}

// TestUnwrittenWriteTimeoutKeepsPeer: a Call whose 1ms bound passes while
// its write waits for the reader to take the first byte has written
// nothing, so the stream is still in sync. It fails with ErrNotSent and,
// as any call whose bound passed, context.DeadlineExceeded; the peer
// stays up, and the next Call on it succeeds once the other end reads.
func TestUnwrittenWriteTimeoutKeepsPeer(t *testing.T) {
	local, remote := net.Pipe()
	peer := NewPeer(NewConn(local), nil)
	defer peer.Close()
	defer remote.Close()

	// Nothing reads remote yet, so the write waits until the bound.
	if _, err := peer.CallWithin(context.Background(), ping{N: 1}, time.Millisecond); !errors.Is(err, ErrNotSent) ||
		!errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrNotSent and context.DeadlineExceeded", err)
	}
	if peer.Dead() {
		t.Fatal("a write that timed out before its first byte closed the connection")
	}

	server := NewPeer(NewConn(remote), func(_ context.Context, msg any) (any, error) {
		return pong{N: msg.(ping).N + 1}, nil
	})
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, ping{N: 2})
	if err != nil {
		t.Fatalf("next Call on the same peer: %v", err)
	}
	if reply.(pong).N != 3 {
		t.Fatalf("reply = %#v", reply)
	}
}
