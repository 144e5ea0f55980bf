package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// PoolConfig tunes a ClientPool.
type PoolConfig struct {
	// DialTimeout bounds one TCP connect (default 5s, Dial's).
	DialTimeout time.Duration
}

// idleTimeout is how long a pooled connection may sit unused before the
// janitor closes it.
const idleTimeout = 5 * time.Minute

// PoolStats counts a ClientPool's connection and retry activity.
type PoolStats struct {
	// Dials is how many fresh connections were opened.
	Dials uint64
	// Reuses is how many calls rode an already-cached connection.
	Reuses uint64
	// Reconnects is how many dials replaced a cached connection found
	// dead at use time.
	Reconnects uint64
	// Evictions is how many connections the janitor closed (idle or dead).
	Evictions uint64
	// Retries is how many extra attempts CallRetry made.
	Retries uint64
}

// poolEntry is one cached connection.
type poolEntry struct {
	peer     *Peer
	lastUsed time.Time
}

// ClientPool caches one live Peer per remote address, reconnecting
// transparently when a cached connection has died and evicting
// connections that sit idle. It exists for the coordinator's hot path —
// polling every station every cycle — where dialing fresh per RPC costs
// 3+ connects per station per cycle; pooled, a healthy station is dialed
// once and reused indefinitely.
type ClientPool struct {
	cfg PoolConfig

	mu    sync.Mutex
	conns map[string]*poolEntry
	// retired marks addresses whose cached connection died or was
	// invalidated, so the next successful dial counts as a reconnect.
	retired map[string]struct{}
	stats   PoolStats
	closed  bool

	stop        chan struct{}
	janitorDone chan struct{}
}

// NewClientPool creates a pool; Close releases its connections.
func NewClientPool(cfg PoolConfig) *ClientPool {
	p := &ClientPool{
		cfg:         cfg,
		conns:       make(map[string]*poolEntry),
		retired:     make(map[string]struct{}),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go p.janitor()
	return p
}

// Get returns a live peer for addr, reusing the cached connection when
// healthy and dialing (or redialing) otherwise.
func (p *ClientPool) Get(addr string) (*Peer, error) { return p.get(addr, 0) }

// get is Get with a dial that also ends within bound, when bound > 0.
func (p *ClientPool) get(addr string, bound time.Duration) (*Peer, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if e, ok := p.conns[addr]; ok {
		if e.peer.Dead() {
			delete(p.conns, addr)
			p.retired[addr] = struct{}{}
			go e.peer.Close()
		} else {
			e.lastUsed = time.Now()
			p.stats.Reuses++
			mPoolReuses.Inc()
			peer := e.peer
			p.mu.Unlock()
			return peer, nil
		}
	}
	p.mu.Unlock()

	timeout := p.cfg.DialTimeout
	if bound > 0 && (timeout <= 0 || bound < timeout) {
		timeout = bound
	}
	peer, err := Dial(addr, timeout, nil)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		peer.Close()
		return nil, ErrClosed
	}
	if e, ok := p.conns[addr]; ok && !e.peer.Dead() {
		// Lost a dial race; keep the connection that won.
		e.lastUsed = time.Now()
		existing := e.peer
		p.mu.Unlock()
		go peer.Close()
		return existing, nil
	}
	p.stats.Dials++
	mPoolDials.Inc()
	if _, wasConnected := p.retired[addr]; wasConnected {
		p.stats.Reconnects++
		mPoolReconnects.Inc()
		delete(p.retired, addr)
	}
	p.conns[addr] = &poolEntry{peer: peer, lastUsed: time.Now()}
	p.mu.Unlock()
	return peer, nil
}

// Call is CallWithin with no bound of its own: ctx's deadline is the
// call's only bound beyond the frame timeout.
func (p *ClientPool) Call(ctx context.Context, addr string, msg any) (any, error) {
	return p.CallWithin(ctx, addr, msg, 0)
}

// CallWithin issues one request to addr over the pooled connection,
// dialing or reconnecting as needed, all within d when d > 0 (see
// Peer.CallWithin) and no longer than ctx allows. Any failure other than
// a RemoteError drops the cached connection, so the next call starts
// from a fresh dial rather than reusing a suspect peer. The call itself
// is never retried — see CallRetry for idempotent requests. Callers
// should always set a bound, d or ctx's deadline.
func (p *ClientPool) CallWithin(ctx context.Context, addr string, msg any, d time.Duration) (any, error) {
	return p.callUntil(ctx, addr, msg, after(d))
}

// CallRetry is CallWithin under Retry's schedule: transient transport
// failures are retried with backoff against a freshly dialed
// connection. d, when > 0, is the whole budget, every attempt and
// backoff included. Only use it for idempotent requests (polls,
// registrations, preempts) — a request whose reply was lost in flight
// will execute again.
func (p *ClientPool) CallRetry(ctx context.Context, addr string, msg any, d time.Duration) (any, error) {
	var reply any
	until := after(d)
	attempt := 0
	err := retry(ctx, until, func() error {
		attempt++
		if attempt > 1 {
			p.mu.Lock()
			p.stats.Retries++
			p.mu.Unlock()
			mPoolRetries.Inc()
		}
		var err error
		reply, err = p.callUntil(ctx, addr, msg, until)
		return err
	})
	return reply, err
}

// after is the time d from now, or the zero time (no bound) if d ≤ 0.
func after(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// callUntil is CallWithin ending by until, or unbounded if it is zero.
func (p *ClientPool) callUntil(ctx context.Context, addr string, msg any, until time.Time) (any, error) {
	d, err := left(until)
	if err != nil {
		return nil, err
	}
	peer, err := p.get(addr, d)
	if err != nil {
		return nil, err
	}
	if d, err = left(until); err != nil {
		return nil, err
	}
	reply, err := peer.CallWithin(ctx, msg, d)
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			p.invalidate(addr, peer)
		}
	}
	return reply, err
}

// left is the time until until, 0 (no bound) if until is zero, or a
// not-sent expiry if it has passed.
func left(until time.Time) (time.Duration, error) {
	if until.IsZero() {
		return 0, nil
	}
	if d := time.Until(until); d > 0 {
		return d, nil
	}
	return 0, fmt.Errorf("%w: %w", ErrNotSent, errExpired)
}

// Invalidate drops addr's cached connection (if any), e.g. because the
// station re-registered at a different address.
func (p *ClientPool) Invalidate(addr string) { p.invalidate(addr, nil) }

// invalidate drops addr's cached connection when it is still peer (or
// unconditionally when peer is nil).
func (p *ClientPool) invalidate(addr string, peer *Peer) {
	p.mu.Lock()
	if e, ok := p.conns[addr]; ok && (peer == nil || e.peer == peer) {
		delete(p.conns, addr)
		p.retired[addr] = struct{}{}
		go e.peer.Close()
	}
	p.mu.Unlock()
}

// Size reports how many connections are currently cached.
func (p *ClientPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Stats returns a snapshot of the counters.
func (p *ClientPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close evicts every connection and fails subsequent calls.
func (p *ClientPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	peers := make([]*Peer, 0, len(p.conns))
	for _, e := range p.conns {
		peers = append(peers, e.peer)
	}
	p.conns = make(map[string]*poolEntry)
	p.mu.Unlock()
	close(p.stop)
	<-p.janitorDone
	for _, peer := range peers {
		peer.Close()
	}
}

// janitor evicts idle and dead connections on a fraction of idleTimeout.
func (p *ClientPool) janitor() {
	defer close(p.janitorDone)
	ticker := time.NewTicker(idleTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.evictIdle(time.Now())
		}
	}
}

func (p *ClientPool) evictIdle(now time.Time) {
	p.mu.Lock()
	var victims []*Peer
	for addr, e := range p.conns {
		if e.peer.Dead() || now.Sub(e.lastUsed) > idleTimeout {
			delete(p.conns, addr)
			if e.peer.Dead() {
				p.retired[addr] = struct{}{}
			}
			victims = append(victims, e.peer)
			p.stats.Evictions++
			mPoolEvictions.Inc()
		}
	}
	p.mu.Unlock()
	for _, peer := range victims {
		peer.Close()
	}
}
