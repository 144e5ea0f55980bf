package wire

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// ErrFaultReset is the failure a FaultConn injects for reset/drop plans.
var ErrFaultReset = errors.New("wire: faultconn: connection reset")

// FaultPlan scripts the failures a FaultConn injects. The zero value
// injects nothing (transparent pass-through).
type FaultPlan struct {
	// StallWrites blocks every Write until the write deadline expires
	// (or forever if none is set), modelling a peer that has stopped
	// draining its socket.
	StallWrites bool
	// StallReads blocks every Read until the read deadline expires (or
	// forever), modelling a black-holed peer that never sends.
	StallReads bool
	// WriteCap accepts at most this many bytes per Write call and fails
	// the remainder with a deadline error — a partial frame write that
	// leaves the stream desynchronized. 0 = unlimited.
	WriteCap int
	// DropAfterBytes severs the connection once this many total bytes
	// have been written through it — a mid-frame connection drop.
	// 0 = never.
	DropAfterBytes int64
	// Reset fails every operation immediately with ErrFaultReset,
	// closing the connection.
	Reset bool

	// LatencyMin/LatencyMax delay each Write by a uniform duration in
	// [min, max] — a slow or jittery link. Writes only, so a proxy
	// wrapping each direction separately can slow them independently.
	// Max ≤ 0 disables; max < min means fixed latency of min.
	LatencyMin time.Duration
	LatencyMax time.Duration
	// CorruptProb flips a few random bits in a Write's payload with this
	// probability per call (on a scratch copy — the caller's buffer is
	// never modified). Frames carry no checksum, so a flip is caught only
	// when it breaks the framing or the decode, which fails the read and
	// closes the connection; one that leaves a valid envelope is
	// delivered altered. 0 disables.
	CorruptProb float64
	// FlapUp/FlapDown, when both positive, alternate the connection
	// between passing traffic for FlapUp and black-holing it (both
	// directions) for FlapDown, phase-anchored at the moment the plan
	// was installed — a timed flapping link that heals and re-fails on
	// schedule.
	FlapUp   time.Duration
	FlapDown time.Duration
	// Seed initializes the per-connection random stream used for latency
	// jitter and corruption (0 selects a fixed default, keeping runs
	// reproducible).
	Seed uint64
}

// flapping reports whether the plan has a flap schedule.
func (p FaultPlan) flapping() bool { return p.FlapUp > 0 && p.FlapDown > 0 }

// flapDown reports whether a flapping plan installed at `since` is in
// its down phase at `now`, and when the current phase ends.
func (p FaultPlan) flapDown(since, now time.Time) (down bool, phaseEnd time.Time) {
	if !p.flapping() {
		return false, time.Time{}
	}
	period := p.FlapUp + p.FlapDown
	elapsed := now.Sub(since)
	if elapsed < 0 {
		elapsed = 0
	}
	offset := elapsed % period
	periodStart := now.Add(-offset)
	if offset < p.FlapUp {
		return false, periodStart.Add(p.FlapUp)
	}
	return true, periodStart.Add(period)
}

// FaultConn wraps a net.Conn with scriptable transport faults for tests:
// stalls, partial writes, mid-frame drops, resets, added latency,
// payload corruption, and timed flapping. It enforces deadlines itself
// while stalling, so deadline behavior is testable deterministically
// without filling kernel socket buffers. Stalled operations re-evaluate
// whenever SetPlan installs a new plan, so a heal takes effect
// immediately instead of after the stalled call's deadline.
type FaultConn struct {
	inner net.Conn

	mu            sync.Mutex
	plan          FaultPlan
	planSince     time.Time
	planChange    chan struct{}
	rng           uint64
	readDeadline  time.Time
	writeDeadline time.Time
	written       int64

	closed    chan struct{}
	closeOnce sync.Once
}

// NewFaultConn wraps inner; inject faults via SetPlan.
func NewFaultConn(inner net.Conn) *FaultConn {
	return &FaultConn{
		inner:      inner,
		planSince:  time.Now(),
		planChange: make(chan struct{}),
		rng:        0x9e3779b97f4a7c15,
		closed:     make(chan struct{}),
	}
}

// SetPlan swaps the active fault plan (safe at any time). Operations
// currently stalled under the old plan wake up and re-evaluate, so
// clearing a stall plan heals them mid-flight. Flap schedules are
// phase-anchored at this call.
func (f *FaultConn) SetPlan(plan FaultPlan) {
	f.mu.Lock()
	f.plan = plan
	f.planSince = time.Now()
	if plan.Seed != 0 {
		f.rng = plan.Seed
	}
	close(f.planChange)
	f.planChange = make(chan struct{})
	f.mu.Unlock()
}

// rand advances the connection's xorshift stream. Caller holds f.mu.
func (f *FaultConn) randLocked() uint64 {
	x := f.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	f.rng = x
	return x
}

// Read implements net.Conn.
func (f *FaultConn) Read(b []byte) (int, error) {
	for {
		f.mu.Lock()
		plan := f.plan
		since := f.planSince
		change := f.planChange
		deadline := f.readDeadline
		f.mu.Unlock()
		if plan.Reset {
			f.Close()
			return 0, ErrFaultReset
		}
		down, phaseEnd := plan.flapDown(since, time.Now())
		if plan.StallReads || down {
			if !down {
				phaseEnd = time.Time{} // stall bounded only by deadline
			}
			retry, err := f.stallUntil(deadline, change, phaseEnd)
			if retry {
				continue
			}
			return 0, err
		}
		return f.inner.Read(b)
	}
}

// Write implements net.Conn.
func (f *FaultConn) Write(b []byte) (int, error) {
	for {
		f.mu.Lock()
		plan := f.plan
		since := f.planSince
		change := f.planChange
		deadline := f.writeDeadline
		written := f.written
		f.mu.Unlock()
		if plan.Reset {
			f.Close()
			return 0, ErrFaultReset
		}
		down, phaseEnd := plan.flapDown(since, time.Now())
		if plan.StallWrites || down {
			if !down {
				phaseEnd = time.Time{}
			}
			retry, err := f.stallUntil(deadline, change, phaseEnd)
			if retry {
				continue
			}
			return 0, err
		}
		if d := f.latency(plan); d > 0 {
			retry, err := f.stallUntil(deadline, change, time.Now().Add(d))
			if err != nil {
				return 0, err
			}
			if retry {
				// Either the delay elapsed (proceed with this plan's write
				// path) or the plan changed (re-evaluate). Re-reading the
				// plan for both is correct and simpler.
				f.mu.Lock()
				changed := f.planChange != change
				f.mu.Unlock()
				if changed {
					continue
				}
			}
		}
		payload := b
		if plan.CorruptProb > 0 {
			f.mu.Lock()
			roll := float64(f.randLocked()%1e9) / 1e9
			flips := 1 + int(f.randLocked()%3)
			var offs [3]int
			for i := 0; i < flips; i++ {
				offs[i] = int(f.randLocked())
			}
			f.mu.Unlock()
			if roll < plan.CorruptProb && len(b) > 0 {
				// Corrupt a scratch copy; the caller's buffer (possibly an
				// encoder's reusable scratch) must stay pristine.
				payload = make([]byte, len(b))
				copy(payload, b)
				for i := 0; i < flips; i++ {
					off := offs[i] % len(payload)
					if off < 0 {
						off = -off % len(payload)
					}
					payload[off] ^= 1 << uint(offs[i]&7)
				}
			}
		}
		n := len(payload)
		capped := false
		if plan.WriteCap > 0 && n > plan.WriteCap {
			n = plan.WriteCap
			capped = true
		}
		dropped := false
		if plan.DropAfterBytes > 0 {
			if remain := plan.DropAfterBytes - written; int64(n) >= remain {
				if remain < 0 {
					remain = 0
				}
				n = int(remain)
				dropped = true
			}
		}
		wrote, err := f.inner.Write(payload[:n])
		f.mu.Lock()
		f.written += int64(wrote)
		f.mu.Unlock()
		if err != nil {
			return wrote, err
		}
		if dropped {
			f.Close()
			return wrote, ErrFaultReset
		}
		if capped {
			return wrote, os.ErrDeadlineExceeded
		}
		return wrote, nil
	}
}

// latency draws this write's injected delay from [LatencyMin,
// LatencyMax] (0 when the plan injects none).
func (f *FaultConn) latency(plan FaultPlan) time.Duration {
	if plan.LatencyMax <= 0 {
		return 0
	}
	if plan.LatencyMax <= plan.LatencyMin {
		return plan.LatencyMin
	}
	span := plan.LatencyMax - plan.LatencyMin
	f.mu.Lock()
	r := f.randLocked()
	f.mu.Unlock()
	return plan.LatencyMin + time.Duration(r%uint64(span))
}

// stallUntil blocks until the deadline passes, the conn closes, the
// plan changes, or wakeAt (if set) arrives. retry=true means the caller
// should re-evaluate the current plan (plan change or phase boundary);
// retry=false carries the terminal error.
func (f *FaultConn) stallUntil(deadline time.Time, change <-chan struct{}, wakeAt time.Time) (retry bool, err error) {
	var deadlineC, wakeC <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	if !wakeAt.IsZero() {
		t := time.NewTimer(time.Until(wakeAt))
		defer t.Stop()
		wakeC = t.C
	}
	select {
	case <-f.closed:
		return false, net.ErrClosed
	case <-change:
		return true, nil
	case <-wakeC:
		return true, nil
	case <-deadlineC:
		return false, os.ErrDeadlineExceeded
	}
}

// Close implements net.Conn.
func (f *FaultConn) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.inner.Close()
}

// LocalAddr implements net.Conn.
func (f *FaultConn) LocalAddr() net.Addr { return f.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (f *FaultConn) RemoteAddr() net.Addr { return f.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (f *FaultConn) SetDeadline(t time.Time) error {
	f.mu.Lock()
	f.readDeadline, f.writeDeadline = t, t
	f.mu.Unlock()
	return f.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (f *FaultConn) SetReadDeadline(t time.Time) error {
	f.mu.Lock()
	f.readDeadline = t
	f.mu.Unlock()
	return f.inner.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (f *FaultConn) SetWriteDeadline(t time.Time) error {
	f.mu.Lock()
	f.writeDeadline = t
	f.mu.Unlock()
	return f.inner.SetWriteDeadline(t)
}
