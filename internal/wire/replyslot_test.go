package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// callAll runs Calls on peer from workers goroutines, each making calls
// of its own numbers, and fails the test on any error or on a reply
// that does not answer its own request.
func callAll(t *testing.T, peer *Peer, workers, calls int, want func(n int) int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				n := w*calls + i
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				reply, err := peer.Call(ctx, ping{N: n})
				cancel()
				if err != nil {
					t.Errorf("call %d: %v", n, err)
					return
				}
				if got := reply.(pong).N; got != want(n) {
					t.Errorf("call %d: reply %d, want %d", n, got, want(n))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// within runs f and fails the test if it has not returned after d. A
// slot recycled with an envelope in it blocks the next sender to it —
// the reader or failAll — for good, so such a bug shows as a hang.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("calls still running after %v: a reply slot was recycled while an envelope was in it or on its way", d)
	}
}

// Calls whose request write fails because the remote end hung up race
// the reader's failAll, which hands each of them a "connection closed"
// envelope. A Call that recycles its reply slot while that envelope is
// still in it, or still on its way, would fail a later Call on a
// healthy connection at once: every Call on a fresh peer must succeed.
func TestStaleSlotAfterFailedWrite(t *testing.T) {
	const rounds, calls = 20, 32
	within(t, 20*time.Second, func() {
		for round := 0; round < rounds; round++ {
			hangUpRound(t, round, calls)
		}
	})
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.conn.Close()
	within(t, 20*time.Second, func() { callAll(t, peer, 4, 300, func(n int) int { return n + 1 }) })
	peer.Close()
}

// hangUpRound starts calls Calls on a peer whose remote end reads
// nothing, waits until each has registered its reply slot, and hangs
// the remote end up.
func hangUpRound(t *testing.T, round, calls int) {
	local, remote := net.Pipe()
	peer := NewPeer(NewConn(local), nil)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Nothing reads the remote end, so every request waits to
			// be written until the hang-up fails it.
			if _, err := peer.Call(context.Background(), ping{N: i}); err == nil {
				t.Errorf("round %d: a Call to a hung-up peer succeeded", round)
			}
		}()
	}
	for {
		peer.mu.Lock()
		n := len(peer.pending)
		peer.mu.Unlock()
		if n == calls {
			break
		}
		time.Sleep(time.Millisecond)
	}
	remote.Close()
	wg.Wait()
	peer.Close()
}

// Replies that land just as each Call's deadline passes race the Call's
// own cleanup. A Call that recycles its slot while the reader still
// sends its reply there hands that reply to a later Call: every reply a
// Call returns must answer its own request. The deadline is a timer that
// cancels the Call's context, so a request write that a slow scheduler
// delays past it still finishes and the connection stays up.
func TestStaleSlotAfterDeadline(t *testing.T) {
	local, remote := net.Pipe()
	var deadlines sync.Map // request number → its Call's deadline
	server := NewPeer(NewConn(remote), func(_ context.Context, msg any) (any, error) {
		n := msg.(ping).N
		if d, ok := deadlines.Load(n); ok {
			time.Sleep(time.Until(d.(time.Time)))
		}
		return pong{N: n}, nil
	})
	defer server.conn.Close()
	peer := NewPeer(NewConn(local), nil)
	defer peer.conn.Close()

	within(t, 20*time.Second, func() { deadlineRace(t, peer, &deadlines) })
	if t.Failed() {
		return
	}
	if peer.Dead() {
		t.Fatal("the connection died")
	}
	// Every slot in the pool is clean now: Calls with time to spare all
	// get their own replies.
	deadlines.Range(func(k, _ any) bool { deadlines.Delete(k); return true })
	within(t, 20*time.Second, func() { callAll(t, peer, 4, 100, func(n int) int { return n }) })
	peer.Close()
	server.Close()
}

// deadlineRace makes 1000 Calls from 4 goroutines, each cancelled 1 ms
// after it starts, when its reply is sent. A goroutine stops at its
// first wrong outcome.
func deadlineRace(t *testing.T, peer *Peer, deadlines *sync.Map) {
	var wg sync.WaitGroup
	var answered, expired atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				n := w*250 + i
				ctx, cancel := context.WithCancel(context.Background())
				deadlines.Store(n, time.Now().Add(time.Millisecond))
				timer := time.AfterFunc(time.Millisecond, cancel)
				reply, err := peer.Call(ctx, ping{N: n})
				timer.Stop()
				cancel()
				switch {
				case err == nil && reply.(pong).N == n:
					answered.Add(1)
				case err == nil:
					t.Errorf("call %d returned the reply to call %d", n, reply.(pong).N)
					return
				case errors.Is(err, context.Canceled):
					expired.Add(1)
				default:
					t.Errorf("call %d: %v", n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d answered, %d expired", answered.Load(), expired.Load())
}

// A Call round trip allocates nothing: the length word lives in the
// read buffer, the peer reuses its reply slots and the timers that bound
// calls, the server hands each request to a serving goroutine it keeps,
// and ping{} and the empty envelope fields decode without allocating.
func TestCallAllocatesNothing(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(*Peer) Handler {
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
	ctx := context.Background()
	for _, bound := range []time.Duration{0, time.Minute} {
		call := func() {
			if _, err := peer.CallWithin(ctx, ping{}, bound); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if avg := testing.AllocsPerRun(500, call); avg > 0 {
			t.Fatalf("a Call round trip bounded by %v allocates %.2f objects, want 0", bound, avg)
		}
	}
}

// A slot's timer is reused from call to call, so a call whose reply wins
// the race against its timer must not leave the timer's value behind: the
// next call on that slot would read it as its own expiry. 1000 calls
// alternate: odd ones are answered just as their 2 ms bound passes and
// may get their reply or expire, and even ones are answered at once and
// must get their reply. The bound also ends a request write still under
// way, which closes the connection, so the calls ride TCP, whose small
// writes land in the socket buffer at once.
func TestBoundTimerReuseAlternatingOutcomes(t *testing.T) {
	var deadlines sync.Map // request number → its call's deadline
	srv, err := NewServer("127.0.0.1:0", func(*Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			n := msg.(ping).N
			if d, ok := deadlines.Load(n); ok {
				time.Sleep(time.Until(d.(time.Time)))
			}
			return pong{N: n}, nil
		}
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

	var answered, expired int
	within(t, 20*time.Second, func() {
		for n := 0; n < 1000; n++ {
			bound := time.Second
			if n%2 == 1 {
				bound = 2 * time.Millisecond
				deadlines.Store(n, time.Now().Add(bound))
			}
			reply, err := peer.CallWithin(context.Background(), ping{N: n}, bound)
			switch {
			case err == nil && reply.(pong).N == n:
				answered++
			case err == nil:
				t.Errorf("call %d returned the reply to call %d", n, reply.(pong).N)
				return
			case n%2 == 1 && errors.Is(err, context.DeadlineExceeded):
				expired++
			default:
				t.Errorf("call %d (bound %v): %v", n, bound, err)
				return
			}
		}
	})
	t.Logf("%d answered, %d expired", answered, expired)
	if peer.Dead() {
		t.Fatal("the connection died")
	}
}
