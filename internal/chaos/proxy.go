// Package chaos is the cluster-level fault-injection harness: a
// byte-level TCP proxy that applies wire.FaultPlan scripts per
// direction (slow links, one-way partitions, corruption, flapping), a
// byzantine station that answers polls with well-formed lies, and a
// scenario runner that drives a live coordinator+schedd cluster through
// randomized multi-station fault schedules and checks the system's
// invariants after heal: no job lost, no double execution, every
// healable station readmitted, accounting conserved.
//
// The harness exists to prove the paper's availability story (§2.1,
// §5.4) under grey failures, not just clean crashes: the coordinator's
// graded health machinery (internal/coordinator/health.go) is exercised
// end-to-end here.
package chaos

import (
	"io"
	"net"
	"sync"
	"time"

	"condor/internal/wire"
)

// Proxy is a byte-level TCP forwarder between callers and one target,
// applying independent fault plans to each direction. Wiring a station
// behind a proxy (register the proxy's address, target the station's
// listener) subjects all coordinator→station and station→station
// traffic to the proxy's faults while the station's own outbound
// connections stay direct — which is exactly the asymmetry one-way
// partition tests need.
type Proxy struct {
	ln net.Listener

	mu       sync.Mutex
	target   string
	forward  wire.FaultPlan // applied to bytes flowing toward the target
	backward wire.FaultPlan // applied to bytes flowing back to the caller
	links    map[*link]struct{}
	accepted int
	closed   bool
}

// link is one proxied connection pair. The FaultConn wraps the write
// side of each direction, so each direction's plan applies independently.
type link struct {
	toTarget *wire.FaultConn
	toCaller *wire.FaultConn
}

// NewProxy starts a proxy on a fresh localhost port. The target may be
// empty at first (the common chicken-and-egg: a station's AdvertiseAddr
// must exist before the station, and the station's listener only after)
// and set later with SetTarget; connections accepted before a target is
// set are dropped.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, links: make(map[*link]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what peers should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetTarget points the proxy at (a possibly new) backend address.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// SetPlans installs the per-direction fault plans on every live link
// and as the default for future connections. Stalled operations on live
// links re-evaluate immediately (see wire.FaultConn.SetPlan), so
// clearing plans heals mid-stall.
func (p *Proxy) SetPlans(forward, backward wire.FaultPlan) {
	p.mu.Lock()
	p.forward, p.backward = forward, backward
	for l := range p.links {
		l.toTarget.SetPlan(forward)
		l.toCaller.SetPlan(backward)
	}
	p.mu.Unlock()
}

// Sever closes every live proxied connection (future dials still
// succeed) — a crisp connection-loss event rather than a plan.
func (p *Proxy) Sever() {
	p.mu.Lock()
	for l := range p.links {
		l.toTarget.Close()
		l.toCaller.Close()
	}
	p.mu.Unlock()
}

// Accepted returns how many connections the proxy has accepted.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// Close shuts the proxy down, severing all live links.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.Sever()
}

func (p *Proxy) acceptLoop() {
	for {
		caller, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			caller.Close()
			return
		}
		p.accepted++
		target := p.target
		fwd, bwd := p.forward, p.backward
		p.mu.Unlock()
		if target == "" {
			caller.Close()
			continue
		}
		go p.serve(caller, target, fwd, bwd)
	}
}

func (p *Proxy) serve(caller net.Conn, target string, fwd, bwd wire.FaultPlan) {
	backend, err := net.DialTimeout("tcp", target, 5*time.Second)
	if err != nil {
		caller.Close()
		return
	}
	l := &link{
		toTarget: wire.NewFaultConn(backend),
		toCaller: wire.NewFaultConn(caller),
	}
	l.toTarget.SetPlan(fwd)
	l.toCaller.SetPlan(bwd)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.toTarget.Close()
		l.toCaller.Close()
		return
	}
	p.links[l] = struct{}{}
	p.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	pump := func(dst *wire.FaultConn, src net.Conn) {
		defer wg.Done()
		io.Copy(dst, src) //nolint:errcheck // a severed pump is the point
		// Half-close semantics are overkill here: one dead direction
		// means the framed RPC on top is broken anyway.
		l.toTarget.Close()
		l.toCaller.Close()
	}
	go pump(l.toTarget, caller)  // caller → target, forward plan
	go pump(l.toCaller, backend) // target → caller, backward plan
	wg.Wait()
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
}
