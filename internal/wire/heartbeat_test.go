package wire

import (
	"context"
	"net"
	"testing"
	"time"
)

func TestHeartbeatKeepsHealthyConnectionAlive(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { return msg, nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.StartHeartbeat(15 * time.Millisecond) // declared dead after 45ms of silence
	// Stay quiet for several timeouts; pongs must keep the peer alive.
	time.Sleep(150 * time.Millisecond)
	select {
	case <-peer.Done():
		t.Fatal("healthy connection was torn down by its own heartbeat")
	default:
	}
	// Still functional.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := peer.Call(ctx, ping{N: 1}); err != nil {
		t.Fatalf("call after heartbeats: %v", err)
	}
}

func TestHeartbeatDetectsBlackholedPeer(t *testing.T) {
	// A listener that accepts and then ignores the connection entirely —
	// the half-open scenario a powered-off machine produces.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c // hold it open, never read
		}
	}()
	peer, err := Dial(l.Addr().String(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.StartHeartbeat(15 * time.Millisecond)
	select {
	case <-peer.Done():
		// detected: good
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed peer never detected")
	}
	select {
	case c := <-accepted:
		c.Close()
	default:
	}
}

func TestHeartbeatZeroIntervalIsNoop(t *testing.T) {
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.StartHeartbeat(0) // no-op
	time.Sleep(20 * time.Millisecond)
	select {
	case <-peer.Done():
		t.Fatal("no-op heartbeat killed the connection")
	default:
	}
}
