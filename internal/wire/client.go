package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"condor/internal/trace"
)

// RemoteError is a handler failure reported by the peer, as opposed to a
// transport failure.
type RemoteError struct {
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return "wire: remote: " + e.Msg }

// ErrNotSent wraps a Call failure that happened before the request frame
// was written: the peer was already closed, the caller's context ended
// or the call's bound passed while the Call waited to write, or the
// frame failed to encode or to write. The remote side never dispatched
// the request, since a receiver drops a partial frame and closes.
var ErrNotSent = errors.New("wire: request not sent")

// Handler processes inbound requests and one-way notifications on a
// peer's connection. For one-way messages the returned value is ignored.
// ctx carries the caller's propagated span context when the envelope
// included one (trace.FromContext extracts it); it is not a cancellation
// signal — the peer does not cancel handlers when the connection dies.
type Handler func(ctx context.Context, msg any) (any, error)

// Peer runs both sides of the symmetric protocol on one connection: it
// can issue requests (Call/Notify) and it dispatches the remote side's
// requests to its Handler. A Peer owns one background reader goroutine,
// stopped by Close, and the goroutines that serve inbound messages,
// which end with the reader.
type Peer struct {
	conn    *Conn
	handler Handler
	// inbound hands a request or one-way message from the reader to a
	// serving goroutine parked on it. It is unbuffered, so a send
	// succeeds only when one is parked.
	inbound chan Envelope

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan Envelope
	// free holds the reply slots no call owns, as many as calls were
	// ever in flight at once, for the next calls to reuse.
	free   []*replySlot
	closed bool

	done chan struct{}
	// readErr records why the reader loop ended.
	readErr error
	// lastHeard is the last time any frame arrived (heartbeat liveness).
	lastHeard time.Time
}

// NewPeer starts a peer on conn. handler may be nil if the local side
// never serves requests (pure client).
func NewPeer(conn *Conn, handler Handler) *Peer {
	p := newStoppedPeer(conn, handler)
	p.start()
	return p
}

func newStoppedPeer(conn *Conn, handler Handler) *Peer {
	return &Peer{
		conn:    conn,
		handler: handler,
		inbound: make(chan Envelope),
		pending: make(map[uint64]chan Envelope),
		done:    make(chan struct{}),
	}
}

func (p *Peer) start() { go p.readLoop() }

// Dial connects to addr, with timeout (default 5s) bounding the connect,
// and returns a peer over the new connection. handler serves the remote
// side's requests (nil = pure client).
func Dial(addr string, timeout time.Duration, handler Handler) (*Peer, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewPeer(NewConn(raw), handler), nil
}

// Close tears down the connection and fails all pending calls.
func (p *Peer) Close() error {
	err := p.conn.Close()
	<-p.done
	return err
}

// Done is closed when the reader loop exits (peer hung up or Close).
func (p *Peer) Done() <-chan struct{} { return p.done }

// Dead reports whether the peer's reader loop has exited, meaning the
// connection can no longer carry calls.
func (p *Peer) Dead() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Err returns the reason the reader loop ended, once Done is closed.
func (p *Peer) Err() error {
	select {
	case <-p.done:
		return p.readErr
	default:
		return nil
	}
}

// RemoteAddr returns the peer's address.
func (p *Peer) RemoteAddr() string { return p.conn.RemoteAddr() }

func (p *Peer) readLoop() {
	defer close(p.done)
	for {
		env, err := p.conn.Recv()
		if err != nil {
			// The connection is useless once the reader dies; close it so
			// writers blocked in Send unwedge too.
			p.conn.Close()
			p.failAll(err)
			return
		}
		p.markHeard()
		if p.handleHeartbeat(env) {
			continue
		}
		switch env.Kind {
		case KindReply:
			p.mu.Lock()
			ch, ok := p.pending[env.ID]
			delete(p.pending, env.ID)
			p.mu.Unlock()
			if ok {
				ch <- env
			}
		case KindRequest:
			p.dispatch(env)
		case KindOneWay:
			if p.handler != nil {
				p.dispatch(env)
			}
		}
	}
}

// dispatch hands env to a parked serving goroutine, or starts one when
// none is parked: the reader never waits for a handler, so a slow one
// (e.g. a long shadow I/O) stalls no other traffic on the peer.
func (p *Peer) dispatch(env Envelope) {
	select {
	case p.inbound <- env:
	default:
		go p.serve(env)
	}
}

// serve handles env, then parks for the next envelope the reader hands
// over, until the reader ends. A peer so keeps as many serving
// goroutines as it ever had messages in service at once, and a message
// starts no goroutine, grows no fresh stack and allocates no closure.
func (p *Peer) serve(env Envelope) {
	for {
		p.handle(env)
		select {
		case env = <-p.inbound:
		case <-p.done:
			return
		}
	}
}

// handle runs the handler on one inbound envelope and, for a request,
// sends its reply.
func (p *Peer) handle(env Envelope) {
	if env.Kind == KindOneWay {
		p.handler(envContext(env), env.Msg) //nolint:errcheck // one-way: no reply channel
		return
	}
	reply := Envelope{ID: env.ID, Kind: KindReply}
	if p.handler == nil {
		reply.Err = "peer does not serve requests"
	} else {
		msg, err := p.handler(envContext(env), env.Msg)
		if err != nil {
			reply.Err = err.Error()
		} else {
			reply.Msg = msg
		}
	}
	// A reply that will not encode or is over the frame limit leaves the
	// connection up, so tell the caller instead of letting it wait out
	// its deadline. Any other send failure means the connection is going
	// down (this second Send then fails too); the reader loop will
	// observe it and fail all pending calls.
	if err := p.conn.Send(reply); err != nil && reply.Msg != nil {
		_ = p.conn.Send(Envelope{ID: env.ID, Kind: KindReply, Err: err.Error()})
	}
}

// envContext builds the handler context for one inbound envelope,
// carrying the remote caller's span context when a valid traceparent
// rode along. Malformed trace fields are dropped, never an error: trace
// metadata must not be able to break RPC dispatch.
func envContext(env Envelope) context.Context {
	if env.Trace == "" {
		return context.Background()
	}
	sc, ok := trace.ParseTraceparent(env.Trace)
	if !ok {
		return context.Background()
	}
	return trace.ContextWith(context.Background(), sc)
}

func (p *Peer) failAll(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.readErr = err
	for id, ch := range p.pending {
		ch <- Envelope{ID: id, Kind: KindReply, Err: ErrClosed.Error()}
		delete(p.pending, id)
	}
}

// Call is CallWithin with no bound of its own: ctx's deadline, if any,
// bounds the call.
func (p *Peer) Call(ctx context.Context, msg any) (any, error) {
	return p.CallWithin(ctx, msg, 0)
}

// CallWithin sends msg as a request and waits for the matching reply,
// for at most d when d > 0, and no longer than ctx allows. The bound
// covers the whole call: a call still waiting for the connection's
// write side, or for its write's first byte to be taken, when it passes
// fails with ErrNotSent and leaves the connection up, and one whose
// frame is partly written then closes it, as any partial frame does. A
// call that passes d fails with an error for which
// errors.Is(err, context.DeadlineExceeded) holds.
// The bound is the reply slot's own timer, so it allocates nothing.
func (p *Peer) CallWithin(ctx context.Context, msg any, d time.Duration) (any, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", ErrNotSent, ErrClosed)
	}
	p.nextID++
	id := p.nextID
	s := p.slot()
	p.pending[id] = s.ch
	p.mu.Unlock()

	// Propagate the caller's span context; pool and retry paths wrap
	// this Call, so one ContextWith at the origin rides every hop.
	var traceparent string
	if sc := trace.FromContext(ctx); sc.Valid() {
		traceparent = sc.Traceparent()
	}

	start := time.Now()
	var expire <-chan time.Time
	if d > 0 {
		s.t.Reset(d)
		expire = s.t.C
	}
	err := p.conn.send(ctx, expire, start.Add(d), Envelope{ID: id, Kind: KindRequest, Msg: msg, Trace: traceparent})
	fired := err == errExpired
	if err == nil {
		select {
		case env := <-s.ch:
			p.put(s, expire != nil)
			if env.Err != "" {
				if env.Err == ErrClosed.Error() {
					mRPCErrors.Inc()
					return nil, ErrClosed
				}
				// A RemoteError still completed the round trip; its latency
				// is as real as a success's.
				mRPCLatency.ObserveDurationExemplar(time.Since(start), traceparent)
				return nil, &RemoteError{Msg: env.Err}
			}
			mRPCLatency.ObserveDurationExemplar(time.Since(start), traceparent)
			return env.Msg, nil
		case <-ctx.Done():
			err = ctx.Err()
		case <-expire:
			err, fired = errExpired, true
		}
	} else {
		err = fmt.Errorf("%w: %w", ErrNotSent, err)
	}
	// The slot goes back once nobody can send to it: this Call removed its
	// own entry, or drained the envelope of whoever did (reader, failAll).
	p.mu.Lock()
	_, mine := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	if !mine {
		<-s.ch
	}
	p.put(s, expire != nil && !fired)
	mRPCErrors.Inc()
	return nil, err
}

// errExpired fails a call whose own bound (CallWithin's d) passed.
var errExpired = fmt.Errorf("wire: call bound passed: %w", context.DeadlineExceeded)

// replySlot is a Call's reply channel, one envelope deep, and the timer
// that bounds the call. A peer reuses its slots, so a call, bounded or
// not, allocates none.
type replySlot struct {
	ch chan Envelope
	t  *time.Timer
}

// slot takes a free reply slot or makes one. p.mu is held.
func (p *Peer) slot() *replySlot {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &replySlot{ch: make(chan Envelope, 1), t: t}
}

// put frees s, which nobody can send to any more, with its timer stopped
// and its channel empty. armed says the timer was started and its value
// not received. Timers here have asynchronous channels (go.mod's go
// version is below 1.23): a timer that fired before Stop has sent its
// value, or is about to, so put waits for it. Synchronous timer channels
// (cap 0) never deliver a value from before Stop.
func (p *Peer) put(s *replySlot, armed bool) {
	if armed && !s.t.Stop() && cap(s.t.C) > 0 {
		<-s.t.C
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Notify sends a one-way message; no reply is expected.
func (p *Peer) Notify(msg any) error {
	return p.NotifyCtx(context.Background(), msg)
}

// NotifyCtx is Notify carrying ctx's span context on the envelope so
// one-way messages (job events, checkpoint shipments) join the trace;
// ctx's deadline bounds the write as it does Call's.
func (p *Peer) NotifyCtx(ctx context.Context, msg any) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var traceparent string
	if sc := trace.FromContext(ctx); sc.Valid() {
		traceparent = sc.Traceparent()
	}
	return p.conn.send(ctx, nil, time.Time{}, Envelope{Kind: KindOneWay, Msg: msg, Trace: traceparent})
}

// Server accepts connections and runs a Peer for each.
type Server struct {
	listener net.Listener
	// NewHandler builds the handler for one connection; it may capture
	// per-connection state and receives the peer for calling back.
	newHandler func(p *Peer) Handler

	mu     sync.Mutex
	peers  map[*Peer]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, newHandler func(p *Peer) Handler) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{listener: l, newHandler: newHandler, peers: make(map[*Peer]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// The handler may call back through the peer, so build the peer
		// first and only then start its reader.
		peer := newStoppedPeer(NewConn(raw), nil)
		if h := s.newHandler(peer); h != nil {
			peer.handler = h
		} else {
			peer.handler = func(context.Context, any) (any, error) {
				return nil, errors.New("no handler")
			}
		}
		peer.start()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			peer.Close()
			return
		}
		s.peers[peer] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			<-peer.Done()
			s.mu.Lock()
			delete(s.peers, peer)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting and closes all live connections, waiting for
// their reader loops to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	for _, p := range peers {
		p.Close()
	}
	s.wg.Wait()
	return err
}
