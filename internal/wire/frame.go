package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"condor/internal/codec"
)

// MaxFrameBytes bounds a single message; larger frames indicate protocol
// corruption (or a checkpoint that should have been chunked).
const MaxFrameBytes = 64 << 20

// keepBufBytes bounds the buffers a connection keeps between frames: a
// frame up to this size is built and read in one reused buffer per
// direction, and a larger one gets buffers of its own that go with it,
// so one checkpoint does not pin megabytes on its connection for life.
const keepBufBytes = 64 << 10

// frameTimeout bounds one frame in flight on every connection: a write
// must finish within it (or by its caller's context deadline, if that is
// earlier), and an inbound frame must complete within it once its first
// byte has arrived. Idleness between frames is never bounded (heartbeats
// cover that), so it can be generous: its job is to unwedge a connection
// whose peer died or stopped reading mid-frame.
const frameTimeout = time.Minute

// Frame-level errors.
var (
	// ErrFrameTooLarge is returned when a peer announces an oversized frame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrClosed is returned for operations on a closed connection.
	ErrClosed = errors.New("wire: connection closed")
)

// Kind distinguishes envelope roles on a connection.
type Kind uint8

// Envelope kinds.
const (
	KindRequest Kind = iota + 1
	KindReply
	KindOneWay
	// KindPing and KindPong are internal heartbeat frames, consumed by
	// the Peer and never delivered to application handlers.
	KindPing
	KindPong
)

// Envelope is one framed message. Msg is nil or a registered Message
// (see internal/proto); heartbeats and failed replies carry none.
type Envelope struct {
	ID   uint64
	Kind Kind
	// Err is set on replies when the handler failed; Msg is nil then.
	Err string
	Msg any
	// Trace optionally carries a W3C traceparent string propagating the
	// caller's span context (see internal/trace).
	Trace string
}

// Conn wraps a net.Conn with framed envelopes. A frame is a 4-byte
// big-endian payload length and that many payload bytes, and every frame
// is self-contained: no codec state crosses from one frame to the next.
// Reads and writes are independently serialized, so one reader goroutine
// and many writers can share a Conn.
type Conn struct {
	raw net.Conn
	// timeout is frameTimeout; tests shorten it before the Conn is used.
	timeout time.Duration

	readMu sync.Mutex
	// writing is the write side's lock: a one-slot semaphore rather than a
	// mutex, so a sender can stop waiting for it when its context ends.
	writing chan struct{}

	// wbuf, under writing, is the reused frame buffer; rbuf and rd, under
	// readMu, are the reused payload buffer and the reader over it (kept
	// here so reading a frame does not allocate one).
	wbuf []byte
	rbuf []byte
	rd   codec.Reader

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps raw.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, timeout: frameTimeout, writing: make(chan struct{}, 1)}
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() string { return c.raw.RemoteAddr().String() }

// Close closes the underlying connection. Safe to call multiple times.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}

// Send writes one envelope under the frame timeout alone, as replies and
// heartbeats are.
func (c *Conn) Send(env Envelope) error { return c.send(context.Background(), env) }

// send writes one envelope as one frame in one Write, which must finish
// by ctx's deadline or within the frame timeout, whichever is earlier.
// A sender whose ctx ends while it waits for the write side gets ctx's
// error, writes nothing and leaves the connection up. So does an
// envelope that cannot be encoded (a Msg that is not a registered
// Message) or exceeds MaxFrameBytes.
func (c *Conn) send(ctx context.Context, env Envelope) error {
	select {
	case c.writing <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.writing }()
	if err := ctx.Err(); err != nil {
		return err // both cases were ready and the lock won
	}
	frame, err := appendEnvelope(append(c.wbuf[:0], 0, 0, 0, 0), &env)
	if cap(frame) <= keepBufBytes {
		c.wbuf = frame[:0]
	} else {
		c.wbuf = nil // frame keeps the bytes alive until they are written
	}
	if err != nil {
		return err
	}
	n := len(frame) - 4
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = c.raw.SetWriteDeadline(deadline)
	if _, err := c.raw.Write(frame); err != nil {
		// A failed (possibly partial) frame write desynchronizes the
		// stream; the connection cannot be used again.
		c.Close()
		return fmt.Errorf("wire: write frame: %w", err)
	}
	mFramesSent.Inc()
	mBytesSent.Add(uint64(len(frame)))
	if env.Kind == KindPing || env.Kind == KindPong {
		mHeartbeatsSent.Inc()
	}
	if env.Trace != "" {
		mTraceBytesSent.Add(uint64(len(env.Trace)))
	}
	return nil
}

// maxEagerFrameAlloc caps how much Recv allocates up front on the
// strength of a peer's announced frame length alone. Larger frames grow
// the buffer as bytes actually arrive, so a hostile length prefix (64 MB
// announced, nothing sent) costs at most this much memory, not
// MaxFrameBytes.
const maxEagerFrameAlloc = 1 << 20

// readPayload reads an n-byte frame payload. Frames up to keepBufBytes
// land in the connection's reused buffer; larger ones get a buffer of
// their own, exactly n bytes long (the decoded message may keep it), and
// trust n only as far as maxEagerFrameAlloc: beyond that the buffer
// doubles, up to n, only as the bytes arrive.
func (c *Conn) readPayload(n uint32) ([]byte, error) {
	if n <= keepBufBytes {
		if int(n) > cap(c.rbuf) {
			c.rbuf = make([]byte, min(max(int(n), 2*cap(c.rbuf)), keepBufBytes))
		}
		payload := c.rbuf[:n]
		_, err := io.ReadFull(c.raw, payload)
		return payload, err
	}
	payload := make([]byte, min(int(n), maxEagerFrameAlloc))
	for have := 0; ; {
		m, err := io.ReadFull(c.raw, payload[have:])
		if have += m; err != nil || have == int(n) {
			return payload, err
		}
		grown := make([]byte, min(2*have, int(n)))
		copy(grown, payload)
		payload = grown
	}
}

// Recv reads one envelope, blocking until a frame arrives or the
// connection fails. Waiting for a frame to *start* is unbounded, but once
// its first byte arrives the rest must follow within the frame timeout —
// a peer that stalls mid-frame fails fast instead of wedging the reader.
// Any error past a frame's first byte, a decode error included, closes
// the connection: a peer that sent one malformed frame is not trusted
// with the next.
func (c *Conn) Recv() (Envelope, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var lenBuf [4]byte
	// Clear the deadline armed for the previous frame: idleness between
	// frames is normal.
	_ = c.raw.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(c.raw, lenBuf[:1]); err != nil {
		return Envelope{}, fmt.Errorf("wire: read length: %w", err)
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(c.timeout))
	if _, err := io.ReadFull(c.raw, lenBuf[1:]); err != nil {
		c.Close() // mid-frame failure: stream desynchronized
		return Envelope{}, fmt.Errorf("wire: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrameBytes {
		c.Close() // cannot resynchronize without consuming the frame
		return Envelope{}, fmt.Errorf("%w: %d bytes announced", ErrFrameTooLarge, n)
	}
	payload, err := c.readPayload(n)
	if err != nil {
		c.Close()
		return Envelope{}, fmt.Errorf("wire: read payload: %w", err)
	}
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(4 + n))
	// A payload larger than keepBufBytes is a buffer of its own, so the
	// message's byte fields may keep it; the reused one must be copied.
	c.rd = codec.NewReader(payload)
	c.rd.Alias = n > keepBufBytes
	env, err := readEnvelope(&c.rd)
	c.rd = codec.Reader{}
	if err != nil {
		c.Close()
		return Envelope{}, fmt.Errorf("wire: decode: %w", err)
	}
	if env.Kind == KindPing || env.Kind == KindPong {
		mHeartbeatsRecv.Inc()
	}
	if env.Trace != "" {
		mTraceBytesRecv.Add(uint64(len(env.Trace)))
	}
	return env, nil
}
