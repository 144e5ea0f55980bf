package wire

import (
	"context"
	"errors"
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
func (p *ClientPool) Get(addr string) (*Peer, error) {
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

	peer, err := Dial(addr, p.cfg.DialTimeout, nil)
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

// Call issues one request to addr over the pooled connection, dialing or
// reconnecting as needed. Any failure other than a RemoteError drops the
// cached connection, so the next call starts from a fresh dial rather
// than reusing a suspect peer. The call itself is never retried — see
// CallRetry for idempotent requests. ctx's deadline is the call's only
// bound beyond the frame timeout, so callers should always set one.
func (p *ClientPool) Call(ctx context.Context, addr string, msg any) (any, error) {
	peer, err := p.Get(addr)
	if err != nil {
		return nil, err
	}
	reply, err := peer.Call(ctx, msg)
	if err != nil {
		var remote *RemoteError
		if !errors.As(err, &remote) {
			p.invalidate(addr, peer)
		}
	}
	return reply, err
}

// CallRetry is Call under the default Retry policy: transient transport
// failures are retried with backoff against a freshly dialed connection.
// Only use it for idempotent requests (polls, registrations, preempts) —
// a request whose reply was lost in flight will execute again.
func (p *ClientPool) CallRetry(ctx context.Context, addr string, msg any) (any, error) {
	var reply any
	attempt := 0
	err := Retry{}.Do(ctx, func() error {
		attempt++
		if attempt > 1 {
			p.mu.Lock()
			p.stats.Retries++
			p.mu.Unlock()
			mPoolRetries.Inc()
		}
		var err error
		reply, err = p.Call(ctx, addr, msg)
		return err
	})
	return reply, err
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
