package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func newTestPool(t *testing.T, cfg PoolConfig) *ClientPool {
	t.Helper()
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	p := NewClientPool(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestPoolReusesConnection(t *testing.T) {
	srv := echoServer(t)
	p := newTestPool(t, PoolConfig{})
	for i := 0; i < 3; i++ {
		reply, err := p.Call(context.Background(), srv.Addr(), ping{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if got := reply.(pong).N; got != i+1 {
			t.Fatalf("call %d reply = %d", i, got)
		}
	}
	stats := p.Stats()
	if stats.Dials != 1 || stats.Reuses != 2 {
		t.Fatalf("stats = %+v, want 1 dial and 2 reuses", stats)
	}
	if p.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", p.Size())
	}
}

func TestPoolReconnectsAfterServerRestart(t *testing.T) {
	srv := echoServer(t)
	addr := srv.Addr()
	p := newTestPool(t, PoolConfig{})
	if _, err := p.Call(context.Background(), addr, ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // cached peer dies

	// Rebind the same port (may need a few tries while the old listener
	// drains).
	var srv2 *Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		srv2, err = NewServer(addr, func(pe *Peer) Handler {
			return func(_ context.Context, msg any) (any, error) { return pong{N: msg.(ping).N + 1}, nil }
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// The pool may need a beat to observe the peer's death.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := p.Call(context.Background(), addr, ping{N: 2}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never reconnected after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats := p.Stats()
	if stats.Reconnects == 0 {
		t.Fatalf("stats = %+v, want a reconnect", stats)
	}
}

func TestPoolEvictsIdleConnections(t *testing.T) {
	srv := echoServer(t)
	p := newTestPool(t, PoolConfig{})
	if _, err := p.Call(context.Background(), srv.Addr(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	p.evictIdle(time.Now().Add(idleTimeout / 2))
	if p.Size() != 1 {
		t.Fatalf("connection used %v ago was evicted", idleTimeout/2)
	}
	p.evictIdle(time.Now().Add(idleTimeout + time.Second))
	if p.Size() != 0 {
		t.Fatalf("idle connection never evicted (size %d)", p.Size())
	}
	if got := p.Stats().Evictions; got == 0 {
		t.Fatalf("evictions = %d, want > 0", got)
	}
	// The pool must still serve the address after eviction.
	if _, err := p.Call(context.Background(), srv.Addr(), ping{N: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCallRetryRidesOutTransientDialFailure(t *testing.T) {
	// Reserve a port, then close the listener so the first attempts are
	// refused; bring a real server up on the same address mid-retry.
	tmp := echoServer(t)
	addr := tmp.Addr()
	tmp.Close()

	p := newTestPool(t, PoolConfig{})
	started := make(chan *Server, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		// Bind only once a refused attempt has been retried: a server
		// that wins the race to the first dial leaves nothing to ride out.
		for p.Stats().Retries == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for {
			srv, err := NewServer(addr, func(pe *Peer) Handler {
				return func(_ context.Context, msg any) (any, error) { return pong{N: msg.(ping).N + 1}, nil }
			})
			if err == nil {
				started <- srv
				return
			}
			if time.Now().After(deadline) {
				started <- nil
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	reply, err := p.CallRetry(context.Background(), addr, ping{N: 1}, 10*time.Second)
	if srv := <-started; srv != nil {
		defer srv.Close()
	}
	if err != nil {
		t.Fatalf("CallRetry never succeeded: %v", err)
	}
	if reply.(pong).N != 2 {
		t.Fatalf("reply = %+v", reply)
	}
	if p.Stats().Retries == 0 {
		t.Fatal("no retries counted despite initial connection refusals")
	}
}

func TestPoolCallRetryDoesNotRetryRemoteError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(pe *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { return nil, errors.New("refused by handler") }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := newTestPool(t, PoolConfig{})
	_, err = p.CallRetry(context.Background(), srv.Addr(), ping{N: 1}, 5*time.Second)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if got := p.Stats().Retries; got != 0 {
		t.Fatalf("retries = %d, want 0 for a remote (handler) error", got)
	}
}

func TestPoolAppliesRPCTimeout(t *testing.T) {
	// A server that accepts but never replies: the caller's deadline must
	// bound the pooled call.
	block := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(pe *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { <-block; return pong{}, nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	p := newTestPool(t, PoolConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Call(ctx, srv.Addr(), ping{N: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("call blocked %v despite its deadline", elapsed)
	}
}

func TestPoolCloseFailsCalls(t *testing.T) {
	srv := echoServer(t)
	p := NewClientPool(PoolConfig{DialTimeout: time.Second})
	if _, err := p.Call(context.Background(), srv.Addr(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Call(context.Background(), srv.Addr(), ping{N: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPoolConcurrentCallsShareConnection(t *testing.T) {
	srv := echoServer(t)
	p := newTestPool(t, PoolConfig{})
	// Warm the cache so the concurrent burst cannot race the first dial.
	if _, err := p.Call(context.Background(), srv.Addr(), ping{N: 0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Call(context.Background(), srv.Addr(), ping{N: i}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	stats := p.Stats()
	if stats.Dials != 1 || stats.Reuses != 32 {
		t.Fatalf("stats = %+v, want 1 dial and 32 reuses", stats)
	}
}

// --- dial-per-RPC vs. pooled ------------------------------------------

func BenchmarkDialPerRPC(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(pe *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { return pong{N: msg.(ping).N + 1}, nil }
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peer, err := Dial(srv.Addr(), time.Second, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := peer.Call(ctx, ping{N: i}); err != nil {
			b.Fatal(err)
		}
		peer.Close()
	}
}

func BenchmarkPooledRPC(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", func(pe *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) { return pong{N: msg.(ping).N + 1}, nil }
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	p := NewClientPool(PoolConfig{DialTimeout: time.Second})
	defer p.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Call(ctx, srv.Addr(), ping{N: i}); err != nil {
			b.Fatal(err)
		}
	}
}

// CallRetry's bound is its whole budget, backoff included. Against a
// refused address the default policy's first backoff (50 ms ±20 %) fits
// in a 100 ms bound and its second (100 ms ±20 %) does not, so the retry
// gives up after two attempts, before the bound, instead of sleeping past
// it. Against a station that never answers, the first attempt's wait
// ends at the bound, and a timeout is not retried.
func TestCallRetryEndsWithinBound(t *testing.T) {
	const bound = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := l.Addr().String()
	l.Close()
	silent, _ := silentPeer(t)

	for _, tc := range []struct {
		name, addr string
		limit      time.Duration
		retries    uint64
	}{
		{"refused", refused, bound, 1},
		{"silent", silent, bound + 50*time.Millisecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPool(t, PoolConfig{})
			start := time.Now()
			_, err := p.CallRetry(context.Background(), tc.addr, ping{N: 1}, bound)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("CallRetry succeeded")
			}
			if elapsed >= tc.limit {
				t.Fatalf("CallRetry took %v under a %v bound (err %v)", elapsed, bound, err)
			}
			if got := p.Stats().Retries; got != tc.retries {
				t.Fatalf("retries = %d, want %d (err %v)", got, tc.retries, err)
			}
		})
	}
}
