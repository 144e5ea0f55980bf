package wire

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// servingGoroutines counts the goroutines, parked or busy, that serve
// some peer's inbound messages.
func servingGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("wire.(*Peer).serve("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// A handler that blocks holds one serving goroutine and nothing else:
// while it waits, a second request and a one-way message on the same
// peer are served. A reader that waited for a parked serving goroutine
// instead of starting one would wait for the blocked handler here.
func TestServingBlockedHandlerDelaysNothing(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	noted := make(chan string, 1)
	srv, err := NewServer("127.0.0.1:0", func(*Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			switch m := msg.(type) {
			case ping:
				if m.N == 1 {
					close(entered)
					<-release
				}
				return pong{N: m.N}, nil
			case note:
				noted <- m.Text
			}
			return nil, nil
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

	blocked := make(chan error, 1)
	go func() {
		_, err := peer.Call(context.Background(), ping{N: 1})
		blocked <- err
	}()
	<-entered
	if reply, err := peer.CallWithin(context.Background(), ping{N: 2}, 5*time.Second); err != nil || reply.(pong).N != 2 {
		close(release)
		t.Fatalf("second request behind a blocked handler: reply %v, err %v", reply, err)
	}
	if err := peer.Notify(note{Text: "meanwhile"}); err != nil {
		close(release)
		t.Fatal(err)
	}
	select {
	case <-noted:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("one-way message behind a blocked handler never served")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("released call: %v", err)
	}
}

// Serving goroutines end with their peer's reader: after 8 calls in
// service at once and 100 sequential ones, closing both ends brings the
// goroutine count back to where it was before the server started.
// Parked goroutines that did not watch the reader's end would stay.
func TestServingGoroutinesEndWithReader(t *testing.T) {
	const concurrent = 8
	base := runtime.NumGoroutine()
	var arrived sync.WaitGroup
	arrived.Add(concurrent)
	srv, err := NewServer("127.0.0.1:0", func(*Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			if n := msg.(ping).N; n < concurrent {
				// Hold each of the first calls until all are in service,
				// so the peer serves 8 at once.
				arrived.Done()
				arrived.Wait()
			}
			return msg, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for n := 0; n < concurrent; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := peer.CallWithin(context.Background(), ping{N: n}, 5*time.Second); err != nil {
				t.Errorf("concurrent call %d: %v", n, err)
			}
		}()
	}
	wg.Wait()
	for n := concurrent; n < concurrent+100; n++ {
		if _, err := peer.Call(context.Background(), ping{N: n}); err != nil {
			t.Fatalf("sequential call %d: %v", n, err)
		}
	}
	if got := servingGoroutines(); got < concurrent {
		t.Fatalf("%d serving goroutines after %d calls in service at once", got, concurrent)
	}
	peer.Close()
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after both ends closed, %d before the server started (%d still serving)",
				runtime.NumGoroutine(), base, servingGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A peer answering one call at a time keeps at most two serving
// goroutines. The next request can arrive while the goroutine that
// wrote the last reply is not yet parked again (the write wakes the
// caller, and the scheduler may run the caller's side first), and then
// the reader starts a second one; from then on one of the two is always
// parked when a request arrives. One started per message, even if it
// then parked, would leave 1000 here.
func TestServingSequentialCallsReuseGoroutines(t *testing.T) {
	before := servingGoroutines()
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for n := 0; n < 1000; n++ {
		if _, err := peer.Call(context.Background(), ping{N: n}); err != nil {
			t.Fatalf("call %d: %v", n, err)
		}
	}
	if got := servingGoroutines() - before; got > 2 {
		t.Fatalf("1000 sequential calls left %d serving goroutines, want at most 2", got)
	}
}
