package chaos

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/wire"
)

// TestChaosCorruptedStreamRedials flips bits in an established
// connection's byte stream. A peer that sent a frame that fails to
// decode is not trusted with the next: the server must close that
// connection (not answer garbage, not limp on), and the pool must get
// through on a fresh dial once the link is clean.
func TestChaosCorruptedStreamRedials(t *testing.T) {
	var mu sync.Mutex
	var accepted []*wire.Peer
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		mu.Lock()
		accepted = append(accepted, p)
		mu.Unlock()
		return func(_ context.Context, msg any) (any, error) { return msg, nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	pool := wire.NewClientPool(wire.PoolConfig{DialTimeout: time.Second})
	defer pool.Close()

	// A flip that enlarges a length word leaves the server waiting for
	// bytes that never come. Each call's deadline bounds that, and the
	// pool then drops the connection, so the test keeps moving.
	msg := proto.JobSuspendedMsg{JobID: "ws1/7"}
	call := func() (any, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		return pool.Call(ctx, proxy.Addr(), msg)
	}
	for i := 0; i < 3; i++ { // establish the connection
		if _, err := call(); err != nil {
			t.Fatalf("clean call %d: %v", i, err)
		}
	}
	if got := pool.Stats().Dials; got != 1 {
		t.Fatalf("dials before the fault = %d, want 1", got)
	}

	// Corrupt caller→server bytes until some server-side connection has
	// died of a decode error. A single flip can be harmless (it lands in a
	// value) or hit a length word instead, so individual calls may succeed
	// or fail in other ways meanwhile; those outcomes are not the subject.
	proxy.SetPlans(wire.FaultPlan{CorruptProb: 1, Seed: 7}, wire.FaultPlan{})
	decodeKilled := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range accepted {
			if err := p.Err(); err != nil && strings.Contains(err.Error(), "wire: decode") {
				return true
			}
		}
		return false
	}
	for i := 0; !decodeKilled(); i++ {
		if i == 200 {
			t.Fatal("200 corrupted calls and no server connection died of a decode error")
		}
		call() //nolint:errcheck // see above
	}

	// The cached connection may still be one a flip left mid-frame; a
	// call on it fails at its deadline and the next one redials.
	proxy.SetPlans(wire.FaultPlan{}, wire.FaultPlan{})
	var reply any
	for attempt := 1; ; attempt++ {
		if reply, err = call(); err == nil || attempt == 5 {
			break
		}
	}
	if err != nil {
		t.Fatalf("call after the link healed: %v", err)
	}
	if reply != msg {
		t.Fatalf("reply after the link healed = %#v, want %#v", reply, msg)
	}
	if got := pool.Stats().Dials; got < 2 {
		t.Fatalf("dials = %d; the pool never replaced the corrupted connection", got)
	}
}
