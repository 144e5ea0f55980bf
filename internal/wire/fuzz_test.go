package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
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
// for them: the first frame starts the gob stream, the rest continue it.
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

// FuzzFrameDecode feeds arbitrary byte streams to the frame decoder. It
// must never panic and never allocate eagerly on the strength of a
// hostile length prefix alone; any malformed input is just an error.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(encodeFrame(f, Envelope{ID: 1, Kind: KindRequest, Msg: pingMsg{}}))
	f.Add(encodeFrame(f, Envelope{ID: 7, Kind: KindReply, Err: "boom"}))
	// A 64 MB announcement with no payload behind it.
	huge := binary.BigEndian.AppendUint32(nil, MaxFrameBytes)
	f.Add(huge)
	// An over-limit announcement.
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameBytes+1))
	// Trace-context seeds: a well-formed traceparent, hostile junk where
	// the traceparent belongs, an oversized one, and a valid frame
	// truncated mid-Trace-field. The decoder must treat Trace as opaque
	// bytes — never parse, never trust.
	valid := encodeFrame(f, Envelope{ID: 2, Kind: KindRequest, Msg: pingMsg{},
		Trace: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"})
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated inside the trailing Trace string
	f.Add(encodeFrame(f, Envelope{ID: 3, Kind: KindOneWay, Msg: pingMsg{},
		Trace: "\x00\xff not a traceparent \xde\xad"}))
	f.Add(encodeFrame(f, Envelope{ID: 4, Kind: KindRequest, Msg: pingMsg{},
		Trace: string(bytes.Repeat([]byte{'a'}, 4096))}))
	// Multi-frame streams from one connection, whole and broken.
	for _, tc := range streamCases(f) {
		f.Add(tc.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		conn := NewConn(&byteConn{r: bytes.NewReader(data)})
		for {
			if _, err := conn.Recv(); err != nil {
				break
			}
		}
	})
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

// TestRecvOversizeAnnouncementRejected pins the hard limit.
func TestRecvOversizeAnnouncementRejected(t *testing.T) {
	data := binary.BigEndian.AppendUint32(nil, MaxFrameBytes+1)
	conn := NewConn(&byteConn{r: bytes.NewReader(data)})
	if _, err := conn.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
