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

// A Call's deadline bounds writing its request, not only the wait for
// the reply: against a peer that accepts and never reads, a 32 MiB
// request must give up at the caller's 100ms deadline rather than sit in
// the write for the frame timeout.
func TestCallDeadlineBoundsStalledWrite(t *testing.T) {
	addr, accepted := silentPeer(t)
	peer, err := Dial(addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	raw := <-accepted
	defer raw.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := peer.Call(ctx, blobMsg{Data: make([]byte, 32<<20)})
		done <- err
	}()
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

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	called := make(chan error, 1)
	go func() {
		_, err := peer.Call(ctx, ping{N: 1})
		called <- err
	}()
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
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, ping{N: 2})
	if err != nil {
		t.Fatalf("next Call on the same connection: %v", err)
	}
	if reply.(pong).N != 3 {
		t.Fatalf("reply = %#v", reply)
	}
}
