package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameBytes bounds a single message; larger frames indicate protocol
// corruption (or a checkpoint that should have been chunked).
const MaxFrameBytes = 64 << 20

// restartBit is the top bit of a frame's length word (free, since
// MaxFrameBytes is 2²⁶). Set, it says the frame starts a new gob stream:
// the receiver must decode it with a fresh decoder. The sender sets it
// on a connection's first frame and on the frame after it dropped its
// encoder (see streamResetBytes and Send).
const restartBit = 1 << 31

// streamResetBytes bounds the codec state a connection retains. A gob
// encoder and decoder each keep a buffer as large as the largest message
// they have carried, so one checkpoint would pin megabytes on its
// connection for as long as it lives. After a frame whose payload
// exceeds this, both ends drop their codec and the next frame starts a
// new stream.
const streamResetBytes = 64 << 10

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

// Envelope is one framed message. Msg carries a gob-registered concrete
// type (see internal/proto).
type Envelope struct {
	ID   uint64
	Kind Kind
	// Err is set on replies when the handler failed; Msg may be nil then.
	Err string
	Msg any
	// Trace optionally carries a W3C traceparent string propagating the
	// caller's span context (see internal/trace). Gob keeps this
	// backward compatible in both directions: old peers silently skip
	// the unknown field on receive, and envelopes from old peers decode
	// here with Trace == "".
	Trace string
}

// Conn wraps a net.Conn with framed gob envelopes. A frame is a 4-byte
// big-endian length word (top bit: restartBit) and that many payload
// bytes. The payloads of one direction form one gob stream, so type
// descriptors cross, and codec engines compile, once per connection
// rather than once per frame. Reads and writes are independently
// serialized, so one reader goroutine and many writers can share a Conn.
type Conn struct {
	raw net.Conn
	// timeout is frameTimeout; tests shorten it before the Conn is used.
	timeout time.Duration

	readMu sync.Mutex
	// writing is the write side's lock: a one-slot semaphore rather than a
	// mutex, so a sender can stop waiting for it when its context ends.
	writing chan struct{}

	// Write side, under writing. enc encodes into wbuf, which holds the
	// frame being built: length word, then payload. A nil enc means the
	// next frame starts a new stream.
	enc  *gob.Encoder
	wbuf bytes.Buffer

	// Read side, under readMu. dec reads the current frame's payload
	// through rd: an io.ByteReader, so gob reads it directly instead of
	// through a bufio.Reader that could hold bytes across frames, and one
	// that ends where the payload ends, so the decoder can never read
	// past its frame. A nil dec means the next frame gets a new decoder.
	// rbuf is the reused payload buffer for frames up to
	// streamResetBytes (gob copies everything it decodes out of it).
	dec  *gob.Decoder
	rd   bytes.Reader
	rbuf []byte

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

// dropEncoder forgets the write-side codec and its buffers; the next
// Send starts a new gob stream. Caller holds the write side.
func (c *Conn) dropEncoder() {
	c.enc = nil
	c.wbuf = bytes.Buffer{}
}

// Send writes one envelope under the frame timeout alone, as replies and
// heartbeats are.
func (c *Conn) Send(env Envelope) error { return c.send(context.Background(), env) }

// send writes one envelope as one frame in one Write, which must finish
// by ctx's deadline or within the frame timeout, whichever is earlier.
// A sender whose ctx ends while it waits for the write side gets ctx's
// error, writes nothing and leaves the connection up. So does an
// envelope that cannot be encoded (an unregistered Msg type) or exceeds
// MaxFrameBytes; the next frame then restarts the stream, since the
// abandoned encoder may count descriptors as sent that never left.
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
	var word uint32
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.wbuf)
		word = restartBit
	}
	var lenWord [4]byte // placeholder, filled in once the length is known
	c.wbuf.Reset()
	c.wbuf.Write(lenWord[:])
	if err := c.enc.Encode(&env); err != nil {
		c.dropEncoder()
		return fmt.Errorf("wire: encode: %w", err)
	}
	frame := c.wbuf.Bytes()
	n := len(frame) - 4
	if n > streamResetBytes {
		c.dropEncoder() // frame keeps the bytes alive until they are written
	}
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(frame, word|uint32(n))
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

// readPayload reads an n-byte frame payload. Frames up to
// streamResetBytes land in the connection's reused buffer; larger ones
// get a buffer of their own, trusting n only as far as
// maxEagerFrameAlloc — beyond that it grows with the data.
func (c *Conn) readPayload(n uint32) ([]byte, error) {
	if n <= streamResetBytes {
		if int(n) > cap(c.rbuf) {
			c.rbuf = make([]byte, min(max(int(n), 2*cap(c.rbuf)), streamResetBytes))
		}
		payload := c.rbuf[:n]
		_, err := io.ReadFull(c.raw, payload)
		return payload, err
	}
	if n <= maxEagerFrameAlloc {
		payload := make([]byte, n)
		_, err := io.ReadFull(c.raw, payload)
		return payload, err
	}
	var buf bytes.Buffer
	buf.Grow(maxEagerFrameAlloc)
	if _, err := io.CopyN(&buf, c.raw, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Recv reads one envelope, blocking until a frame arrives or the
// connection fails. Waiting for a frame to *start* is unbounded, but once
// its first byte arrives the rest must follow within the frame timeout —
// a peer that stalls mid-frame fails fast instead of wedging the reader.
// Any error past a frame's first byte, a decode error included, closes
// the connection: the decoder's stream state cannot be recovered.
func (c *Conn) Recv() (Envelope, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var env Envelope
	var lenBuf [4]byte
	// Clear the deadline armed for the previous frame: idleness between
	// frames is normal.
	_ = c.raw.SetReadDeadline(time.Time{})
	if _, err := io.ReadFull(c.raw, lenBuf[:1]); err != nil {
		return env, fmt.Errorf("wire: read length: %w", err)
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(c.timeout))
	if _, err := io.ReadFull(c.raw, lenBuf[1:]); err != nil {
		c.Close() // mid-frame failure: stream desynchronized
		return env, fmt.Errorf("wire: read length: %w", err)
	}
	word := binary.BigEndian.Uint32(lenBuf[:])
	n := word &^ restartBit
	if n > MaxFrameBytes {
		c.Close() // cannot resynchronize without consuming the frame
		return env, fmt.Errorf("%w: %d bytes announced", ErrFrameTooLarge, n)
	}
	payload, err := c.readPayload(n)
	if err != nil {
		c.Close()
		return env, fmt.Errorf("wire: read payload: %w", err)
	}
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(4 + n))
	if word&restartBit != 0 || c.dec == nil {
		c.dec = gob.NewDecoder(&c.rd)
	}
	c.rd.Reset(payload)
	err = c.dec.Decode(&env)
	c.rd.Reset(nil)
	if n > streamResetBytes {
		c.dec = nil // the sender restarts its stream after a frame this large
	}
	if err != nil {
		c.Close()
		return env, fmt.Errorf("wire: decode: %w", err)
	}
	if env.Kind == KindPing || env.Kind == KindPong {
		mHeartbeatsRecv.Inc()
	}
	if env.Trace != "" {
		mTraceBytesRecv.Add(uint64(len(env.Trace)))
	}
	return env, nil
}
