package coordinator

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/telemetry"
)

// Graded station health. The paper's coordinator models a station as
// alive until DeadAfter consecutive poll failures, then unregisters it —
// a binary that misclassifies every grey failure a real fleet produces:
// slow links, one-way partitions, flapping hosts, and replies that are
// well-formed but impossible. This file replaces the raw
// consecutive-failure counter with a state machine
//
//	healthy → suspect → quarantined → dead
//
// driven by a phi-accrual-flavoured suspicion score over a sliding
// window of poll outcomes and an EWMA of poll RTT. Suspect stations
// receive no new grants but keep their running jobs; quarantined
// stations leave the per-cycle poll fan-out entirely and are probed with
// jittered exponential backoff until enough consecutive probes succeed;
// byzantine replies (impossible state) quarantine immediately. When too
// much of the pool is non-healthy the coordinator freezes up-down index
// movement so users are not charged — or credited — for infrastructure
// failure.

// Health telemetry (see docs/OBSERVABILITY.md).
var (
	mHealthState = telemetry.NewGaugeVec("condor_coordinator_station_health",
		"Stations currently in each health state.", "state")
	mHealthTransitions = telemetry.NewCounterVec("condor_coordinator_health_transitions_total",
		"Station health-state transitions, by destination state.", "to")
	mQuarantines = telemetry.NewCounterVec("condor_coordinator_quarantines_total",
		"Quarantine entries by reason.", "reason")
	mHealthMTTR = telemetry.NewHistogram("condor_coordinator_health_mttr_seconds",
		"Time from a station leaving healthy to its readmission.", nil)
	mByzantine = telemetry.NewCounter("condor_coordinator_byzantine_replies_total",
		"Station replies that claimed impossible state.")
	mDegraded = telemetry.NewGauge("condor_coordinator_degraded",
		"1 while more than half of the pool is non-healthy (up-down movement frozen).")
)

// HealthConfig tunes how a quarantined station is probed — what a
// deployment (and the chaos harness) scales with its poll interval.
type HealthConfig struct {
	// ProbeBase is the initial gap before a quarantined station's first
	// probe; failures double it up to ProbeMax, and every wait is
	// jittered ±25% so a pool-wide outage does not heal in lockstep
	// (defaults: PollInterval and 16×ProbeBase).
	ProbeBase time.Duration
	ProbeMax  time.Duration
}

// The grading thresholds: properties of the state machine, not of a
// deployment — nothing has ever run with other values.
const (
	healthWindow     = 16   // recent poll outcomes kept per station (health.window holds 64)
	suspectAt        = 0.5  // suspicion entering suspect: one missed poll
	quarantineAt     = 0.85 // entering quarantine: three misses running, or a mostly-missing window
	readmitAfter     = 2    // consecutive clean probes that readmit a quarantined station
	slowRTTDivisor   = 4    // a poll faster than RPCTimeout/4 is never "slow", however tight the baseline
	slowAfter        = 3    // consecutive slow polls that raise suspicion to suspectAt
	flapFlips        = 4    // up↔down flips inside the window that quarantine as flapping
	maxUnhealthyFrac = 0.5  // non-healthy share of the pool beyond which indexes freeze (degraded mode)
)

// health is one station's graded-health record. All scoring state is
// scalar so the per-station hot path (observe, one call per poll result
// per cycle) stays allocation-free — BenchmarkHealthObserve gates this.
type health struct {
	state  proto.StationHealth
	since  time.Time
	reason string
	// unhealthySince anchors the MTTR measurement: set when the station
	// leaves healthy, cleared (and observed) on readmission.
	unhealthySince time.Time

	// window is the sliding record of recent poll outcomes, newest in
	// bit 0 (1 = miss); wlen is how many bits are populated.
	window uint64
	wlen   int
	// consecMiss counts consecutive failed contacts (polls and probes).
	consecMiss int
	// slowStreak counts consecutive successful-but-slow polls.
	slowStreak int
	// rttMean/rttDev are EWMAs of poll RTT and its absolute deviation,
	// in seconds.
	rttMean float64
	rttDev  float64
	// suspicion is the current score in [0,1], recomputed by observe.
	suspicion float64

	// Quarantine probing.
	probeAt time.Time
	backoff time.Duration
	probeOK int
	// rng is a per-station xorshift state for probe jitter.
	rng uint64
}

func newHealth(name string, now time.Time) health {
	// Seed the jitter stream from the station name so probe schedules
	// are decorrelated across stations yet deterministic per station.
	seed := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		seed ^= uint64(name[i])
		seed *= 1099511628211
	}
	return health{state: proto.HealthHealthy, since: now, rng: seed | 1}
}

func (h *health) rand() uint64 {
	x := h.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rng = x
	return x
}

// jitter returns d ± 25%.
func (h *health) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	span := int64(d) / 2 // ±25% = a window half as wide as d
	off := int64(h.rand()%uint64(span)) - span/2
	return d + time.Duration(off)
}

// observe folds one poll (or probe) outcome into the station's health
// statistics and recomputes the suspicion score. slowRTT is the floor
// under "slow" (see slowRTTDivisor); slow is computed against the
// pre-update RTT baseline so one slow sample cannot raise the bar it is
// judged by. Allocation-free.
func (h *health) observe(slowRTT, rtt time.Duration, ok bool) {
	h.window <<= 1
	if !ok {
		h.window |= 1
		h.consecMiss++
		h.slowStreak = 0
	} else {
		h.consecMiss = 0
		r := rtt.Seconds()
		if h.rttMean == 0 {
			h.rttMean = r
		}
		slow := rtt >= slowRTT && (h.wlen < 3 || r > 2*h.rttMean+4*h.rttDev)
		dev := r - h.rttMean
		if dev < 0 {
			dev = -dev
		}
		h.rttMean += 0.2 * (r - h.rttMean)
		h.rttDev += 0.2 * (dev - h.rttDev)
		if slow {
			h.slowStreak++
		} else {
			h.slowStreak = 0
		}
	}
	if h.wlen < healthWindow {
		h.wlen++
	}

	// Suspicion: the max of three evidence channels. Consecutive misses
	// accrue phi-style (1, 2, 3 misses → 0.5, 0.75, 0.875); the windowed
	// miss fraction catches stations that fail often without ever
	// failing long; the slow streak tops out below the quarantine
	// threshold — persistent slowness makes a station suspect, never
	// quarantined, because it is still doing the work.
	// missFrac divides by the full window size, not the populated
	// length: a single miss in a fresh window is one data point, not a
	// 100% failure rate (the consecutive-miss channel covers the young
	// window).
	missFrac := float64(bits.OnesCount64(h.window&h.mask())) / healthWindow
	consec := 1 - math.Exp2(-float64(h.consecMiss))
	slowComp := suspectAt * float64(h.slowStreak) / slowAfter
	if slowComp > 0.6 {
		slowComp = 0.6
	}
	h.suspicion = missFrac
	if consec > h.suspicion {
		h.suspicion = consec
	}
	if slowComp > h.suspicion {
		h.suspicion = slowComp
	}
}

// mask covers the populated window bits.
func (h *health) mask() uint64 {
	if h.wlen >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(h.wlen)) - 1
}

// flips counts reachable↔unreachable transitions inside the window —
// the flap signature. A station cycling N−1 failures and one success
// shows a high flip count even though its consecutive-failure counter
// keeps resetting.
func (h *health) flips() int {
	if h.wlen < 2 {
		return 0
	}
	m := (uint64(1) << uint(h.wlen-1)) - 1
	return bits.OnesCount64((h.window ^ (h.window >> 1)) & m)
}

// cleanStreak reports whether the n most recent observations were all
// successes.
func (h *health) cleanStreak(n int) bool {
	if h.wlen < n {
		return false
	}
	return h.window&((uint64(1)<<uint(n))-1) == 0
}

// resetScoring clears the evidence window after readmission so stale
// misses cannot immediately re-suspect a just-readmitted station.
func (h *health) resetScoring() {
	h.window = 0
	h.wlen = 0
	h.consecMiss = 0
	h.slowStreak = 0
	h.suspicion = 0
	h.probeOK = 0
	h.backoff = 0
	h.probeAt = time.Time{}
}

// coarseReason reduces a detailed reason to its metric label: the text
// before the first ':' (timeout, slow, byzantine, flap).
func coarseReason(reason string) string {
	label, _, _ := strings.Cut(reason, ":")
	return label
}

// byzantineReason inspects a successfully decoded poll reply for claims
// of impossible state. It returns "" for plausible replies, else a
// human-readable description. knownHome reports whether a station name
// is (or recently was) registered — a foreign job attributed to a home
// station the coordinator has never heard of is the "job the coordinator
// never placed" signature, while a recently-dead home is legitimate
// (its jobs outlive its registration).
func byzantineReason(polled string, r proto.PollReply, knownHome func(string) bool) string {
	if r.Name != "" && r.Name != polled {
		return fmt.Sprintf("byzantine: claims to be %q", r.Name)
	}
	if r.WaitingJobs < 0 {
		return fmt.Sprintf("byzantine: negative waiting jobs (%d)", r.WaitingJobs)
	}
	if r.DiskFreeBytes < 0 {
		return fmt.Sprintf("byzantine: negative capacity (%d bytes)", r.DiskFreeBytes)
	}
	if r.IdleStreakMillis < 0 || r.AvgIdleMillis < 0 {
		return "byzantine: negative idle history"
	}
	if r.State < proto.StationOwner || r.State > proto.StationSuspended {
		return fmt.Sprintf("byzantine: impossible state %d", int(r.State))
	}
	if r.ForeignOwnerStation != "" && r.ForeignOwnerStation != polled && !knownHome(r.ForeignOwnerStation) {
		return fmt.Sprintf("byzantine: runs job %q for unknown station %q", r.ForeignJob, r.ForeignOwnerStation)
	}
	return ""
}

// setHealthLocked moves a station to a new health state, journaling the
// transition, emitting the event, and updating counters. Caller holds
// c.mu. Dead is not set here — removal goes through removeStationLocked.
func (c *Coordinator) setHealthLocked(s *station, to proto.StationHealth, reason string, now time.Time) {
	from := s.health.state
	if from == to {
		return
	}
	s.health.state = to
	s.health.since = now
	s.health.reason = reason
	mHealthTransitions.With(to.String()).Inc()
	if from == proto.HealthHealthy {
		s.health.unhealthySince = now
	}
	switch to {
	case proto.HealthHealthy:
		if !s.health.unhealthySince.IsZero() {
			mHealthMTTR.ObserveDuration(now.Sub(s.health.unhealthySince))
			s.health.unhealthySince = time.Time{}
		}
		if from == proto.HealthQuarantined {
			c.stats.Readmissions++
			// Clear the evidence window only on readmission from
			// quarantine, where the stale misses would immediately
			// re-quarantine. Suspect→healthy keeps its window so a
			// flapper's up/down history survives the dips to healthy.
			s.health.resetScoring()
		}
		s.health.reason = ""
		c.events.Append(eventlog.Event{Kind: eventlog.KindReadmit, Station: s.name,
			Detail: "readmitted from " + from.String()})
	case proto.HealthSuspect:
		c.stats.Suspects++
		c.events.Append(eventlog.Event{Kind: eventlog.KindSuspect, Station: s.name, Detail: reason})
	case proto.HealthQuarantined:
		c.stats.Quarantines++
		mQuarantines.With(coarseReason(reason)).Inc()
		s.health.probeOK = 0
		s.health.backoff = c.cfg.Health.ProbeBase
		s.health.probeAt = now.Add(s.health.jitter(s.health.backoff))
		c.events.Append(eventlog.Event{Kind: eventlog.KindQuarantine, Station: s.name, Detail: reason})
	}
	c.appendJournalLocked(persistRecord{
		Kind: recHealth, Name: s.name,
		Health: int(to), Reason: s.health.reason, SinceUnixMilli: now.UnixMilli(),
	})
}

// removeStationLocked declares a station dead and unregisters it.
// Caller holds c.mu; returns the address to invalidate in the pool.
func (c *Coordinator) removeStationLocked(s *station, reason string, now time.Time) string {
	mHealthTransitions.With(proto.HealthDead.String()).Inc()
	delete(c.stations, s.name)
	c.rememberRemovedLocked(s.name, now)
	mStations.Set(int64(len(c.stations)))
	c.table.Remove(s.name)
	c.appendJournalLocked(persistRecord{Kind: recUnregister, Name: s.name})
	c.events.Append(eventlog.Event{Kind: eventlog.KindDead, Station: s.name, Detail: reason})
	return s.addr
}

// rememberRemovedLocked keeps a bounded tombstone set of recently
// removed stations so byzantineReason does not flag jobs whose home
// station died after placing them.
func (c *Coordinator) rememberRemovedLocked(name string, now time.Time) {
	if c.removed == nil {
		c.removed = make(map[string]time.Time)
	}
	if len(c.removed) >= 256 {
		// Evict the oldest tombstone; 256 concurrent recent deaths means
		// the pool has bigger problems than a spurious byzantine flag.
		var oldest string
		var oldestAt time.Time
		for n, at := range c.removed {
			if oldest == "" || at.Before(oldestAt) {
				oldest, oldestAt = n, at
			}
		}
		delete(c.removed, oldest)
	}
	c.removed[name] = now
}

// knownHomeLocked reports whether name is a registered station or a
// recent tombstone. Caller holds c.mu.
func (c *Coordinator) knownHomeLocked(name string) bool {
	if _, ok := c.stations[name]; ok {
		return true
	}
	_, ok := c.removed[name]
	return ok
}

// evalHealthLocked applies one poll outcome to a station's health state
// machine. byzReason is non-empty when the reply claimed impossible
// state. Returns the station's address when it was removed (dead), else
// "". Caller holds c.mu.
func (c *Coordinator) evalHealthLocked(s *station, now time.Time, pollOK bool, byzReason string) (removedAddr string) {
	h := &s.health

	if byzReason != "" {
		c.stats.ByzantineReplies++
		mByzantine.Inc()
		if h.state == proto.HealthQuarantined {
			// Still lying on probe: reset readmission progress, back off
			// harder.
			h.probeOK = 0
			c.backoffProbeLocked(s, now)
		} else {
			c.setHealthLocked(s, proto.HealthQuarantined, byzReason, now)
		}
		return ""
	}

	// The DeadAfter contract survives the state machine: a station that
	// misses this many consecutive contacts (cycle polls while healthy
	// or suspect, backoff probes while quarantined) is unregistered.
	if !pollOK && h.consecMiss >= c.cfg.DeadAfter {
		return c.removeStationLocked(s,
			fmt.Sprintf("timeout: %d consecutive failed contacts", h.consecMiss), now)
	}

	switch h.state {
	case proto.HealthQuarantined:
		if pollOK {
			h.probeOK++
			if h.probeOK >= readmitAfter {
				c.setHealthLocked(s, proto.HealthHealthy, "", now)
			} else {
				// Probe again soon: readmission wants consecutive
				// successes, not one lucky packet.
				h.probeAt = now.Add(h.jitter(c.cfg.Health.ProbeBase))
			}
		} else {
			h.probeOK = 0
			c.backoffProbeLocked(s, now)
		}
	case proto.HealthSuspect:
		if reason, bad := quarantineReason(h); bad {
			c.setHealthLocked(s, proto.HealthQuarantined, reason, now)
		} else if h.suspicion < suspectAt/2 && h.cleanStreak(readmitAfter) {
			// Hysteresis: leaving suspect takes both a low score and a
			// streak of clean polls — one lucky success is not recovery.
			c.setHealthLocked(s, proto.HealthHealthy, "", now)
		}
	default: // healthy
		if reason, bad := quarantineReason(h); bad {
			c.setHealthLocked(s, proto.HealthQuarantined, reason, now)
		} else if h.suspicion >= suspectAt {
			c.setHealthLocked(s, proto.HealthSuspect, suspectReason(h), now)
		}
	}
	return ""
}

// quarantineReason reports whether the station's evidence crosses a
// quarantine threshold, and why.
func quarantineReason(h *health) (string, bool) {
	if f := h.flips(); f >= flapFlips {
		return fmt.Sprintf("flap: %d up/down transitions in window", f), true
	}
	if h.suspicion >= quarantineAt && h.consecMiss > 0 {
		return fmt.Sprintf("timeout: suspicion %.2f (%d consecutive misses)",
			h.suspicion, h.consecMiss), true
	}
	if h.suspicion >= quarantineAt {
		return fmt.Sprintf("timeout: suspicion %.2f over window", h.suspicion), true
	}
	return "", false
}

// suspectReason labels why a station became suspect.
func suspectReason(h *health) string {
	if h.consecMiss > 0 {
		return fmt.Sprintf("timeout: %d missed poll(s), suspicion %.2f", h.consecMiss, h.suspicion)
	}
	if h.slowStreak > 0 {
		return fmt.Sprintf("slow: %d consecutive slow polls (mean RTT %.0fms)",
			h.slowStreak, h.rttMean*1000)
	}
	return fmt.Sprintf("timeout: suspicion %.2f over window", h.suspicion)
}

// backoffProbeLocked doubles (and jitters) a quarantined station's probe
// gap up to ProbeMax.
func (c *Coordinator) backoffProbeLocked(s *station, now time.Time) {
	h := &s.health
	if h.backoff <= 0 {
		h.backoff = c.cfg.Health.ProbeBase
	} else {
		h.backoff *= 2
	}
	if h.backoff > c.cfg.Health.ProbeMax {
		h.backoff = c.cfg.Health.ProbeMax
	}
	h.probeAt = now.Add(h.jitter(h.backoff))
}

// updateDegradedLocked recomputes degraded mode from the pool's health
// census and emits the transition event. Caller holds c.mu.
func (c *Coordinator) updateDegradedLocked(now time.Time) {
	var total, nonHealthy, suspect, quarantined int64
	for _, s := range c.stations {
		total++
		switch s.health.state {
		case proto.HealthSuspect:
			suspect++
			nonHealthy++
		case proto.HealthQuarantined:
			quarantined++
			nonHealthy++
		}
	}
	mHealthState.With("healthy").Set(total - nonHealthy)
	mHealthState.With("suspect").Set(suspect)
	mHealthState.With("quarantined").Set(quarantined)
	degraded := total > 0 && float64(nonHealthy) > maxUnhealthyFrac*float64(total)
	if degraded == c.degraded {
		return
	}
	c.degraded = degraded
	if degraded {
		mDegraded.Set(1)
		c.stats.DegradedCycles++ // counted again per cycle in Cycle
		c.events.Append(eventlog.Event{Kind: eventlog.KindDegraded,
			Detail: fmt.Sprintf("entered: %d/%d stations non-healthy, up-down frozen", nonHealthy, total)})
	} else {
		mDegraded.Set(0)
		c.events.Append(eventlog.Event{Kind: eventlog.KindDegraded,
			Detail: "left: pool health recovered, up-down resumed"})
	}
}
