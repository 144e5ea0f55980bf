package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/codec"
)

// The test messages. Their tags sit above every internal/proto tag,
// since this package's external tests link both sets.
type ping struct{ N int }
type pong struct{ N int }
type note struct{ Text string }
type blobMsg struct{ Data []byte }

func (ping) WireTag() byte                   { return 124 }
func (pong) WireTag() byte                   { return 125 }
func (note) WireTag() byte                   { return 126 }
func (blobMsg) WireTag() byte                { return 127 }
func (m ping) AppendWire(b []byte) []byte    { return codec.AppendInt(b, int64(m.N)) }
func (m pong) AppendWire(b []byte) []byte    { return codec.AppendInt(b, int64(m.N)) }
func (m note) AppendWire(b []byte) []byte    { return codec.AppendString(b, m.Text) }
func (m blobMsg) AppendWire(b []byte) []byte { return codec.AppendBytes(b, m.Data) }

func init() {
	Register(ping{}, func(r *codec.Reader) Message { return ping{N: int(r.ReadInt())} })
	Register(pong{}, func(r *codec.Reader) Message { return pong{N: int(r.ReadInt())} })
	Register(note{}, func(r *codec.Reader) Message { return note{Text: r.ReadString()} })
	Register(blobMsg{}, func(r *codec.Reader) Message { return blobMsg{Data: r.ReadBytes()} })
}

func echoServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			switch m := msg.(type) {
			case ping:
				return pong{N: m.N + 1}, nil
			case note:
				return nil, nil
			default:
				return nil, fmt.Errorf("unexpected %T", msg)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestCallRoundTrip(t *testing.T) {
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	reply, err := peer.Call(context.Background(), ping{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reply.(pong)
	if !ok || got.N != 42 {
		t.Fatalf("reply = %#v", reply)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := peer.Call(context.Background(), ping{N: i})
			if err != nil {
				errs <- err
				return
			}
			if p, ok := reply.(pong); !ok || p.N != i+1 {
				errs <- fmt.Errorf("call %d got %#v", i, reply)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			return nil, errors.New("queue is full")
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
	_, err = peer.Call(context.Background(), ping{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "queue is full") {
		t.Fatalf("remote msg = %q", remote.Msg)
	}
}

func TestCallAfterServerClose(t *testing.T) {
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if _, err := peer.Call(context.Background(), ping{N: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-peer.Done()
	if _, err := peer.Call(context.Background(), ping{N: 2}); !errors.Is(err, ErrClosed) || !errors.Is(err, ErrNotSent) {
		t.Fatalf("err = %v, want ErrClosed, not sent", err)
	}
}

func TestPendingCallsFailOnDisconnect(t *testing.T) {
	// A server that never replies.
	block := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			<-block
			return nil, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		_, err := peer.Call(context.Background(), ping{})
		result <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the call get pending
	peer.Close()
	select {
	case err := <-result:
		// The request was written: the caller must not take it as unsent.
		if !errors.Is(err, ErrClosed) || errors.Is(err, ErrNotSent) {
			t.Fatalf("err = %v, want ErrClosed after sending", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed after close")
	}
}

func TestCallContextCancellation(t *testing.T) {
	block := make(chan struct{})
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			<-block
			return pong{}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); srv.Close() }()
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := peer.Call(ctx, ping{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestServerCallsBackToClient(t *testing.T) {
	// The RU pattern: client (shadow) dials in, then serves requests the
	// server (executor) sends back over the same connection.
	type sideband struct{ asked chan int }
	sb := sideband{asked: make(chan int, 1)}
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			if q, ok := msg.(ping); ok {
				// Call back to the client before replying.
				reply, err := p.Call(context.Background(), ping{N: 100})
				if err != nil {
					return nil, err
				}
				sb.asked <- reply.(pong).N
				return pong{N: q.N}, nil
			}
			return nil, fmt.Errorf("unexpected %T", msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clientHandler := func(_ context.Context, msg any) (any, error) {
		if q, ok := msg.(ping); ok {
			return pong{N: q.N * 2}, nil
		}
		return nil, errors.New("unexpected")
	}
	peer, err := Dial(srv.Addr(), time.Second, clientHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	reply, err := peer.Call(context.Background(), ping{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if reply.(pong).N != 7 {
		t.Fatalf("reply = %#v", reply)
	}
	select {
	case n := <-sb.asked:
		if n != 200 {
			t.Fatalf("callback result = %d, want 200", n)
		}
	case <-time.After(time.Second):
		t.Fatal("server callback never completed")
	}
}

func TestNotifyOneWay(t *testing.T) {
	got := make(chan string, 1)
	srv, err := NewServer("127.0.0.1:0", func(p *Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			if n, ok := msg.(note); ok {
				got <- n.Text
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
	if err := peer.Notify(note{Text: "job suspended"}); err != nil {
		t.Fatal(err)
	}
	select {
	case text := <-got:
		if text != "job suspended" {
			t.Fatalf("notify text = %q", text)
		}
	case <-time.After(time.Second):
		t.Fatal("notification never arrived")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := NewConn(b)
	go func() {
		// Announce an absurd frame length.
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], MaxFrameBytes+1)
		a.Write(lenBuf[:])
	}()
	if _, err := conn.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond, nil); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := echoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestPeerWithNilHandlerRejectsRequests(t *testing.T) {
	srv := echoServer(t)
	peer, err := Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// The server side will try to call back; our nil handler must answer
	// with an error rather than hang. Simulate by sending a request from
	// a raw connection to the client is hard; instead test the unit:
	p := newStoppedPeer(NewConn(nopConn{}), nil)
	reply := make(chan Envelope, 1)
	go func() {
		p.serve(Envelope{ID: 1, Kind: KindRequest, Msg: ping{}})
		reply <- Envelope{}
	}()
	select {
	case <-reply:
	case <-time.After(time.Second):
		t.Fatal("serve with nil handler hung")
	}
}

// nopConn is a net.Conn that swallows writes.
type nopConn struct{}

func (nopConn) Read(b []byte) (int, error)         { select {} }
func (nopConn) Write(b []byte) (int, error)        { return len(b), nil }
func (nopConn) Close() error                       { return nil }
func (nopConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (nopConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (nopConn) SetDeadline(t time.Time) error      { return nil }
func (nopConn) SetReadDeadline(t time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(t time.Time) error { return nil }
