package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// splitFrames cuts a byte stream written by one Conn into its frames
// (length word included).
func splitFrames(t testing.TB, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(stream) > 0 {
		n := 4 + int(binary.BigEndian.Uint32(stream)&^restartBit)
		frames = append(frames, stream[:n])
		stream = stream[n:]
	}
	return frames
}

// withRestartBit returns a copy of frame with the restart bit set.
func withRestartBit(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[0] |= 0x80
	return out
}

// streamCases are byte streams around the per-connection gob stream:
// what one Conn wrote for three pings, and the ways a peer can break
// the start/continuation contract. ok is how many envelopes Recv must
// deliver before it fails. They seed FuzzFrameDecode and are pinned by
// TestRecvStreamFraming.
func streamCases(t testing.TB) map[string]struct {
	data []byte
	ok   int
} {
	stream := encodeFrame(t,
		Envelope{ID: 1, Kind: KindRequest, Msg: pingMsg{Seq: 1}},
		Envelope{ID: 2, Kind: KindRequest, Msg: pingMsg{Seq: 2}},
		Envelope{ID: 3, Kind: KindRequest, Msg: pingMsg{Seq: 3}})
	f := splitFrames(t, stream)
	if len(f) != 3 || f[0][0]&0x80 == 0 || f[1][0]&0x80 != 0 || len(f[1]) >= len(f[0]) {
		t.Fatalf("want a start frame and two shorter continuations, got lengths %d %d %d", len(f[0]), len(f[1]), len(f[2]))
	}
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	return map[string]struct {
		data []byte
		ok   int
	}{
		"start and continuations":         {stream, 3},
		"continuation without a start":    {join(f[1], f[2]), 0},
		"restart bit mid-stream":          {join(f[0], withRestartBit(f[1]), f[2]), 1},
		"restart bit on over-limit frame": {binary.BigEndian.AppendUint32(nil, restartBit|(MaxFrameBytes+1)), 0},
		"truncated inside a continuation": {stream[:len(stream)-3], 2},
	}
}

// TestRecvStreamFraming pins what the restart bit means to a receiver:
// continuations decode against the descriptors their stream's start
// frame carried, and a frame that does not fit its stream is an error
// that closes the connection.
func TestRecvStreamFraming(t *testing.T) {
	for name, tc := range streamCases(t) {
		raw := &byteConn{r: bytes.NewReader(tc.data)}
		conn := NewConn(raw)
		for i := 1; i <= tc.ok; i++ {
			env, err := conn.Recv()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if m, ok := env.Msg.(pingMsg); !ok || m.Seq != uint64(i) || env.ID != uint64(i) {
				t.Fatalf("%s: frame %d decoded as %+v", name, i, env)
			}
		}
		_, err := conn.Recv()
		if err == nil {
			t.Fatalf("%s: frame %d decoded; want an error", name, tc.ok+1)
		}
		if name == "restart bit on over-limit frame" && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: err = %v, want ErrFrameTooLarge", name, err)
		}
		if tc.ok < 3 && !raw.closed {
			t.Fatalf("%s: Recv failed (%v) but left the connection open", name, err)
		}
	}
}

type unregisteredMsg struct{ N int }

// TestUnencodableReplyKeepsConnection: a handler that replies with a
// type gob cannot carry fails that one call — promptly, with the encode
// error — and the connection, its stream restarted, serves the next.
func TestUnencodableReplyKeepsConnection(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", func(*Peer) Handler {
		return func(_ context.Context, msg any) (any, error) {
			if msg.(ping).N == 0 {
				return unregisteredMsg{}, nil
			}
			return pong{N: msg.(ping).N + 1}, nil
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		if _, err := peer.Call(ctx, ping{N: 1}); err != nil {
			t.Fatalf("round %d: call before the bad reply: %v", round, err)
		}
		var remote *RemoteError
		if _, err := peer.Call(ctx, ping{N: 0}); !errors.As(err, &remote) || !strings.Contains(remote.Msg, "wire: encode") {
			t.Fatalf("round %d: unencodable reply: err = %v, want a RemoteError naming the encode failure", round, err)
		}
		reply, err := peer.Call(ctx, ping{N: 41})
		if err != nil || reply.(pong).N != 42 {
			t.Fatalf("round %d: call after the bad reply = %v, %v; want pong 42 on the same connection", round, reply, err)
		}
	}
	if peer.Dead() {
		t.Fatal("an unencodable reply killed the connection")
	}
}

// retainedBytes is what a Conn's own buffers hold between frames; the
// codecs' internal buffers are covered by the heap check below.
func retainedBytes(c *Conn) int { return c.wbuf.Cap() + cap(c.rbuf) }

// TestBigFrameDoesNotPinMemory sends small, big, small frames in both
// directions over one connection. Every frame must round-trip — the
// stream restarts after the big one — and once the big frames are gone
// neither end may still hold memory of their size.
func TestBigFrameDoesNotPinMemory(t *testing.T) {
	const big = 8 << 20
	rawA, rawB := net.Pipe()
	a, b := NewConn(rawA), NewConn(rawB)
	defer a.Close()
	defer b.Close()

	var id uint64
	roundTrip := func(from, to *Conn, size int) {
		t.Helper()
		id++
		data := bytes.Repeat([]byte{byte(id)}, size)
		errc := make(chan error, 1)
		go func() { errc <- from.Send(Envelope{ID: id, Kind: KindOneWay, Msg: blobMsg{Data: data}}) }()
		env, err := to.Recv()
		if err != nil {
			t.Fatalf("frame %d (%d bytes): recv: %v", id, size, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("frame %d (%d bytes): send: %v", id, size, err)
		}
		if m, ok := env.Msg.(blobMsg); !ok || env.ID != id || !bytes.Equal(m.Data, data) {
			t.Fatalf("frame %d (%d bytes) did not round-trip", id, size)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	roundTrip(a, b, 100)
	roundTrip(b, a, 100)
	before := heap()
	for i := 0; i < 2; i++ {
		roundTrip(a, b, big)
		if a.enc != nil || b.dec != nil {
			t.Fatal("codec state survived a frame over streamResetBytes")
		}
		roundTrip(b, a, big)
		// gob lends encoders scratch buffers from a process-wide
		// sync.Pool, and an encoder keeps a pointer to the last one it
		// borrowed. Empty the pool so the small frames below cannot pick
		// up a big frame's scratch: this test is about what the
		// connection itself holds.
		heap()
		roundTrip(a, b, 100)
		roundTrip(a, b, streamResetBytes/2)
		roundTrip(b, a, 100)
		roundTrip(b, a, 100)
	}
	if got := retainedBytes(a) + retainedBytes(b); got > 8*streamResetBytes {
		t.Fatalf("connection buffers retain %d bytes after big frames; want ≤ %d", got, 8*streamResetBytes)
	}
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("heap grew %d bytes across %d-byte frames that are gone; the connection pins them", grew, big)
	}
}
