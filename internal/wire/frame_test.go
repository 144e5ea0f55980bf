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

	"condor/internal/codec"
)

// byteConn is a net.Conn that reads from a fixed byte stream and
// records what is written to it — enough to drive Conn.Recv over
// arbitrary input and to capture what Conn.Send emits.
type byteConn struct {
	r      *bytes.Reader
	w      bytes.Buffer
	closed bool
}

func (c *byteConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *byteConn) Close() error                     { c.closed = true; return nil }
func (c *byteConn) LocalAddr() net.Addr              { return fakeAddr{} }
func (c *byteConn) RemoteAddr() net.Addr             { return fakeAddr{} }
func (c *byteConn) SetDeadline(time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(time.Time) error { return nil }

type fakeAddr struct{}

func (fakeAddr) Network() string { return "fake" }
func (fakeAddr) String() string  { return "fake" }

// encodeFrame renders envelopes as the wire bytes one connection sends
// for them.
func encodeFrame(t testing.TB, envs ...Envelope) []byte {
	t.Helper()
	sink := &byteConn{r: bytes.NewReader(nil)}
	conn := NewConn(sink)
	for _, env := range envs {
		if err := conn.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	return sink.w.Bytes()
}

// frameOf is one frame around a hand-built payload.
func frameOf(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestRecvRefusesMalformedFrames: a frame whose payload does not decode —
// an unknown Kind or tag, a message cut short, a byte past the message —
// is an error that closes the connection, even after good frames.
func TestRecvRefusesMalformedFrames(t *testing.T) {
	good := encodeFrame(t, Envelope{ID: 1, Kind: KindRequest, Msg: note{Text: "hi"}})
	payload := func(kind, tag uint64, body ...byte) []byte {
		b := codec.AppendUint(nil, 2)
		b = codec.AppendUint(b, kind)
		b = codec.AppendString(codec.AppendString(b, ""), "")
		return frameOf(append(codec.AppendUint(b, tag), body...))
	}
	noteBody := codec.AppendString(nil, "hi")
	cases := map[string][]byte{
		"kind 0":                              payload(0, 0),
		"kind past KindPong":                  payload(uint64(KindPong)+1, 0),
		"kind 257 (truncates to a valid one)": payload(257, 0),
		"unknown tag":                         payload(uint64(KindRequest), 100),
		"tag past maxTag":                     payload(uint64(KindRequest), maxTag+1),
		"message cut short":                   payload(uint64(KindRequest), uint64(note{}.WireTag()), noteBody[:2]...),
		"byte past the message":               payload(uint64(KindRequest), uint64(note{}.WireTag()), append(noteBody, 0)...),
		"payload cut short":                   good[:len(good)-1],
		"empty payload":                       frameOf(nil),
	}
	for name, bad := range cases {
		raw := &byteConn{r: bytes.NewReader(append(append([]byte(nil), good...), bad...))}
		conn := NewConn(raw)
		if env, err := conn.Recv(); err != nil || env.Msg != (note{Text: "hi"}) {
			t.Fatalf("%s: good frame = %+v, %v", name, env, err)
		}
		if env, err := conn.Recv(); err == nil {
			t.Fatalf("%s: decoded as %+v; want an error", name, env)
		}
		if !raw.closed {
			t.Fatalf("%s: Recv failed but left the connection open", name)
		}
	}
	if _, err := NewConn(&byteConn{r: bytes.NewReader(payload(uint64(KindPong), 0))}).Recv(); err != nil {
		t.Fatalf("the hand-built payload is refused unmodified: %v", err)
	}
}

type unregisteredMsg struct{ N int }

// TestUnencodableReplyKeepsConnection: a handler that replies with a
// value that is not a wire Message fails that one call — promptly, with
// the encode error — and the connection serves the next.
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

// retainedBytes is what a Conn's own buffers hold between frames.
func retainedBytes(c *Conn) int { return cap(c.wbuf) + cap(c.rbuf) }

// TestBigFrameDoesNotPinMemory sends small, big, small frames in both
// directions over one connection. Every frame must round-trip, and once
// the big frames are gone neither end may still hold memory of their
// size.
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
		roundTrip(b, a, big)
		roundTrip(a, b, 100)
		roundTrip(a, b, keepBufBytes/2)
		roundTrip(b, a, 100)
		roundTrip(b, a, 100)
	}
	if got := retainedBytes(a) + retainedBytes(b); got > 4*keepBufBytes {
		t.Fatalf("connection buffers retain %d bytes after big frames; want ≤ %d", got, 4*keepBufBytes)
	}
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("heap grew %d bytes across %d-byte frames that are gone; the connection pins them", grew, big)
	}
}

// TestRecvHostileLengthPrefix pins the progressive-allocation defence:
// a peer announcing a near-maximum frame but delivering almost nothing
// must cost bounded memory, not MaxFrameBytes.
func TestRecvHostileLengthPrefix(t *testing.T) {
	const announced = MaxFrameBytes - 1
	data := binary.BigEndian.AppendUint32(nil, announced)
	data = append(data, make([]byte, 16)...) // a sliver of payload, then EOF

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn := NewConn(&byteConn{r: bytes.NewReader(data)})
	_, err := conn.Recv()
	runtime.ReadMemStats(&after)

	if err == nil {
		t.Fatal("Recv succeeded on a truncated frame")
	}
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("announced %d bytes is within MaxFrameBytes; got %v", announced, err)
	}
	// The two-tier readPayload caps the eager buffer at
	// maxEagerFrameAlloc; allow generous slack for runtime noise.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxEagerFrameAlloc {
		t.Fatalf("Recv allocated %d bytes for a %d-byte announcement with 16 bytes delivered; want ≤ %d",
			grew, announced, 4*maxEagerFrameAlloc)
	}
}

// TestRecvOversizeAnnouncementRejected pins the hard limit, including a
// length word with its top bit set.
func TestRecvOversizeAnnouncementRejected(t *testing.T) {
	for _, n := range []uint32{MaxFrameBytes + 1, 1<<31 | 8} {
		raw := &byteConn{r: bytes.NewReader(binary.BigEndian.AppendUint32(nil, n))}
		if _, err := NewConn(raw).Recv(); !errors.Is(err, ErrFrameTooLarge) || !raw.closed {
			t.Fatalf("length %#x: err = %v, closed = %v; want ErrFrameTooLarge and a closed connection", n, err, raw.closed)
		}
	}
}
