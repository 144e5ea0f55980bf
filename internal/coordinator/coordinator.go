// Package coordinator implements Condor's central coordinator (§2.1): a
// deliberately thin daemon that polls every registered station on a
// fixed interval, maintains the Up-Down schedule indexes, and assigns
// capacity from idle workstations to stations with background jobs
// waiting. All job state stays at the stations; if the coordinator dies,
// running jobs are unaffected and only new allocations stop — restarting
// it (anywhere) rebuilds its entire state from registrations and polls.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condor/internal/accounting"
	"condor/internal/decision"
	"condor/internal/eventlog"
	"condor/internal/journal"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/telemetry"
	"condor/internal/trace"
	"condor/internal/updown"
	"condor/internal/wire"
)

// Coordinator telemetry (see docs/OBSERVABILITY.md). Interned once;
// cycle and poll paths only touch atomics.
var (
	mCycleDuration = telemetry.NewHistogram("condor_coordinator_cycle_seconds",
		"Duration of one full poll-decide-act allocation cycle.", nil)
	mPollLatency = telemetry.NewHistogram("condor_coordinator_poll_seconds",
		"Latency of one station poll RPC within the cycle fan-out.", nil)
	mPollFails = telemetry.NewCounter("condor_coordinator_poll_failures_total",
		"Station polls that failed (station unreachable or RPC error).")
	mGrants = telemetry.NewCounter("condor_coordinator_grants_total",
		"Capacity grants issued to stations.")
	mGrantsUsed = telemetry.NewCounter("condor_coordinator_grants_used_total",
		"Grants the receiving station actually used to place a job.")
	mGrantsDenied = telemetry.NewCounter("condor_coordinator_grants_denied_total",
		"Grants the receiving station declined (pacing, no jobs left, disk).")
	mPreempts = telemetry.NewCounter("condor_coordinator_preempts_total",
		"Up-Down preemption orders sent to execution stations.")
	mStations = telemetry.NewGauge("condor_coordinator_stations",
		"Stations currently registered in the pool.")
	mPollInFlight = telemetry.NewGauge("condor_coordinator_polls_in_flight",
		"Station polls currently in flight (bounded by PollConcurrency).")
)

// Config parameterizes a coordinator.
type Config struct {
	// ListenAddr is the bind address (default "127.0.0.1:0").
	ListenAddr string
	// PollInterval is the station poll period (paper: 2 minutes).
	PollInterval time.Duration
	// DialTimeout bounds one station TCP connect.
	DialTimeout time.Duration
	// RPCTimeout bounds one station RPC end-to-end, connection
	// establishment included (default DialTimeout + 10s). It applies
	// uniformly to polls, grants, preempts, and reservation enforcement,
	// as each call's context deadline, so it bounds the request's write
	// to a station that has stopped reading as well as the wait for its
	// reply.
	RPCTimeout time.Duration
	// Policy selects and tunes allocation. It is handed to the pipeline
	// as written: policy.Config documents what a zero or partly filled
	// value means, the same here as in the simulator.
	Policy policy.Config
	// DeadAfter unregisters a station that has failed this many
	// consecutive contacts (default 5). With graded health this is the
	// final escalation: quarantined stations keep accruing misses
	// through their backoff probes until this threshold declares them
	// dead.
	DeadAfter int
	// Health tunes how quarantined stations are probed; zero value
	// selects defaults derived from PollInterval. See HealthConfig.
	Health HealthConfig
	// PollConcurrency caps how many station polls run at once in a
	// cycle (default 64). Without a cap a 10k-station pool would burst
	// 10k goroutines and dials every cycle; with it the fan-out streams
	// through a fixed-size window.
	PollConcurrency int
	// StateDir enables the durable-state journal: up-down indexes,
	// reservations, and the station table survive a coordinator crash
	// and are replayed on the next start. Empty means pure in-memory
	// (the paper's original behaviour).
	StateDir string
	// SnapshotEvery writes a full-state snapshot (compacting the
	// journal) every N poll cycles (default 16). The journal also
	// compacts early whenever its log outgrows the size threshold.
	SnapshotEvery int
	// Decisions receives each cycle's scheduling audit (why every
	// machine was filtered, ranked, granted, or preempted — see
	// internal/decision). Nil means decision.Default, which the
	// /decisions endpoint on the -http listener serves.
	Decisions *decision.Recorder
}

func (c *Config) sanitize() {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Minute
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = c.DialTimeout + 10*time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 5
	}
	if c.PollConcurrency <= 0 {
		c.PollConcurrency = 64
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 16
	}
	if c.Decisions == nil {
		c.Decisions = decision.Default
	}
	if c.Health.ProbeBase <= 0 {
		c.Health.ProbeBase = c.PollInterval
	}
	if c.Health.ProbeMax <= 0 {
		c.Health.ProbeMax = 16 * c.Health.ProbeBase
	}
}

// station is the coordinator's view of one workstation.
type station struct {
	name      string
	addr      string
	lastPoll  time.Time
	lastReply proto.PollReply
	reachable bool
	// health is the station's graded-health record (see health.go). It
	// subsumes the old consecutive-failure counter: misses are tracked
	// over a sliding window, so a flapping station can no longer reset
	// its record with a single lucky success.
	health health
}

// Stats counts coordinator activity.
type Stats struct {
	Cycles     uint64
	Polls      uint64
	PollFails  uint64
	Grants     uint64
	GrantsUsed uint64
	// GrantsDenied counts grants the receiving station declined (pacing,
	// no idle jobs, disk full, owner returned mid-grant).
	GrantsDenied uint64
	Preempts     uint64
	// Graded-health activity: stations marked suspect, quarantine
	// entries, quarantined stations readmitted to healthy, poll replies
	// rejected as byzantine, and cycles spent in degraded mode (up-down
	// movement frozen because too much of the pool was non-healthy).
	Suspects         uint64
	Quarantines      uint64
	Readmissions     uint64
	ByzantineReplies uint64
	DegradedCycles   uint64
	// Wire-client activity on the pooled station connections: fresh
	// dials, calls served by a cached connection, dials replacing a dead
	// one, idle evictions, and CallRetry re-attempts.
	Dials      uint64
	Reuses     uint64
	Reconnects uint64
	Evictions  uint64
	Retries    uint64
	// Incarnation counts how many times this coordinator's state
	// directory has been opened — 1 on a fresh persistent coordinator,
	// incrementing on every restart; 0 for an in-memory coordinator.
	Incarnation uint64
	// Journal activity (all zero without StateDir): records appended and
	// snapshots written this incarnation, current log size, records
	// replayed at startup, torn-tail bytes truncated at startup, and
	// append/encode failures.
	JournalAppends   uint64
	JournalSnapshots uint64
	JournalLogBytes  int64
	JournalReplayed  uint64
	JournalTruncated int64
	JournalErrors    uint64
}

// Coordinator is the central capacity allocator.
type Coordinator struct {
	cfg    Config
	server *wire.Server
	// pool caches one connection per station so the poll loop does not
	// pay a dial per RPC.
	pool   *wire.ClientPool
	table  *updown.Table
	events *eventlog.Log
	// pipeline is the active scheduling policy, resolved from
	// Config.Policy.Name (or the journaled name of the previous
	// incarnation) at startup and immutable afterwards.
	pipeline *policy.Policy
	// journal is the durable-state log (nil without StateDir).
	journal *journal.Journal
	started time.Time
	// led is this coordinator's allocation ledger (grants, denials,
	// preempts, capacity consumed per home station) plus the cluster
	// time-series sampler. It is NOT accounting.Default: the coordinator's
	// totals are journaled and restored with its state, so they need an
	// instance whose lifecycle matches the journal's.
	led *accounting.Ledger
	// readyName identifies this coordinator's /healthz readiness check.
	readyName string
	// lastCycleNanos is when the last poll cycle completed; journalHealthy
	// clears when a journal append/snapshot fails. Both feed Ready().
	lastCycleNanos atomic.Int64
	journalHealthy atomic.Bool

	mu           sync.Mutex
	stations     map[string]*station
	stats        Stats
	reservations map[string]reservation
	// removed is a bounded tombstone set of recently unregistered
	// stations: a poll reply attributing a foreign job to one of these is
	// legitimate (the home died after placing it), not byzantine.
	removed map[string]time.Time
	// degraded is set while more than maxUnhealthyFrac of the pool is
	// non-healthy; up-down index movement is frozen so users are
	// not charged for infrastructure failure.
	degraded bool

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New creates and starts a coordinator: its RPC server and its poll loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.sanitize()
	c := &Coordinator{
		cfg:          cfg,
		table:        updown.NewTable(updown.DefaultConfig()),
		events:       eventlog.New(eventlog.DefaultCapacity),
		led:          accounting.NewLedger(),
		stations:     make(map[string]*station),
		reservations: make(map[string]reservation),
		started:      time.Now(),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	c.journalHealthy.Store(true)
	c.lastCycleNanos.Store(time.Now().UnixNano())
	// Every event the coordinator logs (grants, preempts, health
	// transitions, registrations, degraded-mode flips) also rides the
	// process event bus, where the dashboard's SSE fan-out picks it up.
	// The bus publish is a single atomic load while nobody subscribes.
	c.events.SetNotify(func(e eventlog.Event) {
		telemetry.Events.Publish(telemetry.BusEvent{
			At: e.At, Source: "coordinator", Kind: string(e.Kind),
			Job: e.Job, Station: e.Station, Detail: e.Detail, TraceID: e.TraceID,
		})
	})
	if cfg.StateDir != "" {
		// Recover the previous incarnation's state before anything can
		// observe or mutate it. Policy resolution happens inside
		// openJournal so the recovered policy name is honoured and the
		// recovery-compaction snapshot records the active one.
		if err := c.openJournal(); err != nil {
			return nil, err
		}
	} else if err := c.resolvePolicy(""); err != nil {
		return nil, err
	}
	c.pool = wire.NewClientPool(wire.PoolConfig{DialTimeout: cfg.DialTimeout})
	server, err := wire.NewServer(cfg.ListenAddr, c.handlerFor)
	if err != nil {
		c.pool.Close()
		if c.journal != nil {
			c.journal.Close()
		}
		return nil, err
	}
	c.server = server
	c.readyName = "coordinator@" + server.Addr()
	telemetry.RegisterReadiness(c.readyName, c.Ready)
	go c.pollLoop()
	return c, nil
}

// Ready reports whether this coordinator should pass a readiness probe:
// the journal (if any) is writable and the poll loop is still turning
// over. Registered on /healthz, which answers 503 while it errors.
func (c *Coordinator) Ready() error {
	if !c.journalHealthy.Load() {
		return errors.New("journal unhealthy (append or snapshot failing)")
	}
	if age := time.Since(time.Unix(0, c.lastCycleNanos.Load())); age > 2*c.cfg.PollInterval {
		return fmt.Errorf("last poll cycle %s ago (interval %s)",
			age.Round(time.Millisecond), c.cfg.PollInterval)
	}
	return nil
}

// Accounting exposes the coordinator's allocation ledger.
func (c *Coordinator) Accounting() *accounting.Ledger { return c.led }

// PolicyName reports the active scheduling policy.
func (c *Coordinator) PolicyName() string { return c.pipeline.Name() }

// resolvePolicy installs the scheduling pipeline. Precedence: an
// explicitly configured name wins (and must exist — an operator typo
// should fail startup, not silently schedule differently), then the
// previous incarnation's journaled name, then the default. A journaled
// name this binary does not know (downgrade, corruption) degrades to
// the default and is counted as a journal error rather than refusing
// to start. A policy that ranks by a StationView field only the
// simulator fills is refused the same way: live it would silently
// schedule as some other policy. When the resolved policy differs from
// the journaled one, the change is journaled so the next restart keeps
// it.
func (c *Coordinator) resolvePolicy(journaled string) error {
	name := c.cfg.Policy.Name
	if name == "" {
		name = journaled
	}
	pol, err := policy.New(name)
	if err == nil && pol.SimulatedOnly() != "" {
		err = fmt.Errorf("coordinator: policy %q ranks by StationView.%s, which station poll replies do not carry, "+
			"so a live pool would silently fall back to its base order; it runs only under condor-sim",
			name, pol.SimulatedOnly())
	}
	if err != nil {
		if c.cfg.Policy.Name != "" {
			return err
		}
		c.stats.JournalErrors++
		pol = policy.MustNew("")
	}
	c.pipeline = pol
	if c.journal != nil && pol.Name() != journaled {
		c.appendJournalLocked(persistRecord{Kind: recPolicy, Name: pol.Name()})
	}
	return nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() string { return c.server.Addr() }

// Close stops the poll loop, the server, and the station connection
// pool. Safe to call multiple times.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.done
	telemetry.UnregisterReadiness(c.readyName)
	c.server.Close()
	c.pool.Close()
	if c.journal != nil {
		// No farewell snapshot: the journal is already durable, and
		// keeping shutdown identical to a crash means the replay path is
		// the only recovery path — exercised on every restart.
		c.journal.Close()
	}
}

// Stats returns a snapshot of the counters, wire-client activity
// included.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	out := c.stats
	c.mu.Unlock()
	ps := c.pool.Stats()
	out.Dials = ps.Dials
	out.Reuses = ps.Reuses
	out.Reconnects = ps.Reconnects
	out.Evictions = ps.Evictions
	out.Retries = ps.Retries
	if c.journal != nil {
		js := c.journal.Stats()
		out.Incarnation = js.Incarnation
		out.JournalAppends = js.Appends
		out.JournalSnapshots = js.Snapshots
		out.JournalLogBytes = js.LogBytes
		out.JournalReplayed = js.ReplayedRecords
		out.JournalTruncated = js.TruncatedBytes
	}
	return out
}

// Register adds a station directly (used by in-process pools; network
// registrations arrive via RegisterRequest).
func (c *Coordinator) Register(name, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(name, addr)
}

func (c *Coordinator) registerLocked(name, addr string) {
	prev, known := c.stations[name]
	if !known {
		c.events.Append(eventlog.Event{Kind: eventlog.KindRegister, Station: name, Detail: addr})
	} else if prev.addr != addr {
		// The station came back at a new address; the cached connection
		// to the old one is garbage.
		c.pool.Invalidate(prev.addr)
	}
	if !known || prev.addr != addr {
		// Re-registrations at the same address change nothing durable;
		// journaling only membership changes keeps the log quiet under
		// StartRegistrar's periodic re-registration.
		c.appendJournalLocked(persistRecord{Kind: recRegister, Name: name, Addr: addr})
	}
	s := &station{name: name, addr: addr, reachable: true}
	if known {
		// Health survives re-registration: a quarantined station cannot
		// launder its record by registering again — it still has to pass
		// its readmission probes.
		s.health = prev.health
	} else {
		s.health = newHealth(name, time.Now())
	}
	c.stations[name] = s
	delete(c.removed, name)
	mStations.Set(int64(len(c.stations)))
	c.table.Touch(name)
}

// Events exposes the coordinator's decision history.
func (c *Coordinator) Events() *eventlog.Log { return c.events }

// Stations returns the current pool table.
func (c *Coordinator) Stations() []proto.StationInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]proto.StationInfo, 0, len(c.stations))
	held := c.heldCountLocked()
	now := time.Now()
	for _, s := range c.stations {
		info := proto.StationInfo{
			Name:          s.name,
			Addr:          s.addr,
			State:         s.lastReply.State,
			WaitingJobs:   s.lastReply.WaitingJobs,
			RunningJobs:   held[s.name],
			ForeignJob:    s.lastReply.ForeignJob,
			ScheduleIndex: c.table.Index(s.name),
			IndexHistory:  c.table.History(s.name),
			LastPoll:      s.lastPoll,
			DiskFreeBytes: s.lastReply.DiskFreeBytes,
			Health:        s.health.state,
			HealthSince:   s.health.since,
			HealthReason:  s.health.reason,
			Suspicion:     s.health.suspicion,
		}
		if holder := c.reservationForLocked(s.name, now); holder != "" {
			info.ReservedFor = holder
			info.ReservedUntil = c.reservations[s.name].until
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// heldCountLocked counts, per home station, how many machines its jobs
// currently occupy, from the latest poll replies.
func (c *Coordinator) heldCountLocked() map[string]int {
	held := make(map[string]int, len(c.stations))
	for _, s := range c.stations {
		if !s.reachable {
			continue
		}
		if s.lastReply.ForeignOwnerStation != "" &&
			(s.lastReply.State == proto.StationClaimed || s.lastReply.State == proto.StationSuspended) {
			held[s.lastReply.ForeignOwnerStation]++
		}
	}
	return held
}

// handlerFor serves the coordinator's RPC surface.
func (c *Coordinator) handlerFor(peer *wire.Peer) wire.Handler {
	return func(ctx context.Context, msg any) (any, error) {
		switch m := msg.(type) {
		case proto.RegisterRequest:
			if m.Name == "" || m.Addr == "" {
				return nil, errors.New("coordinator: register needs name and addr")
			}
			c.mu.Lock()
			c.registerLocked(m.Name, m.Addr)
			c.mu.Unlock()
			return proto.RegisterReply{
				OK:                 true,
				PollIntervalMillis: c.cfg.PollInterval.Milliseconds(),
			}, nil
		case proto.ReserveRequest:
			until, err := c.Reserve(m.Station, m.Holder,
				time.Duration(m.DurationMillis)*time.Millisecond)
			if err != nil {
				return proto.ReserveReply{OK: false, Reason: err.Error()}, nil //nolint:nilerr // refusal is data
			}
			return proto.ReserveReply{OK: true, UntilUnixMillis: until.UnixMilli()}, nil
		case proto.CancelReservationRequest:
			return proto.CancelReservationReply{Cancelled: c.CancelReservation(m.Station)}, nil
		case proto.HistoryRequest:
			return proto.HistoryReply{Events: c.events.Query(m.JobID, m.TraceID, m.Limit)}, nil
		case proto.AccountingRequest:
			// Both ledgers: the coordinator's allocation view, and the
			// process-global job view (populated when schedd/ru run in the
			// same process, as in in-process pools).
			return proto.AccountingReply{
				Process:        accounting.Default.Snapshot(),
				Coordinator:    c.led.Snapshot(),
				HasCoordinator: true,
			}, nil
		case proto.DecisionsRequest:
			page := c.cfg.Decisions.PageFor(m.Job, m.Station, m.Cycle, m.Last)
			return proto.DecisionsReply{
				Cycles:  page.Cycles,
				Total:   page.Total,
				Dropped: page.Dropped,
			}, nil
		case proto.PoolStatusRequest:
			stats := c.Stats()
			c.mu.Lock()
			degraded := c.degraded
			c.mu.Unlock()
			return proto.PoolStatusReply{
				Stations: c.Stations(),
				Wire: proto.WireStats{
					Dials:      stats.Dials,
					Reuses:     stats.Reuses,
					Reconnects: stats.Reconnects,
					Evictions:  stats.Evictions,
					Retries:    stats.Retries,
				},
				Coordinator: proto.CoordinatorInfo{
					ReadyFailures:     telemetry.ReadinessFailures(),
					PolicyName:        c.pipeline.Name(),
					Incarnation:       stats.Incarnation,
					StartedUnixMillis: c.started.UnixMilli(),
					Cycles:            stats.Cycles,
					Grants:            stats.Grants,
					GrantsUsed:        stats.GrantsUsed,
					GrantsDenied:      stats.GrantsDenied,
					Preempts:          stats.Preempts,
					Degraded:          degraded,
					Suspects:          stats.Suspects,
					Quarantines:       stats.Quarantines,
					Readmissions:      stats.Readmissions,
					ByzantineReplies:  stats.ByzantineReplies,
					Persistent:        c.journal != nil,
					Journal: proto.JournalStats{
						Appends:        stats.JournalAppends,
						Snapshots:      stats.JournalSnapshots,
						LogBytes:       stats.JournalLogBytes,
						Replayed:       stats.JournalReplayed,
						TruncatedBytes: stats.JournalTruncated,
						Errors:         stats.JournalErrors,
					},
				},
			}, nil
		default:
			return nil, fmt.Errorf("coordinator: unexpected %T", msg)
		}
	}
}

// pollLoop runs the allocation cycle every PollInterval.
func (c *Coordinator) pollLoop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.Cycle()
		}
	}
}

// Cycle runs one poll-decide-act cycle synchronously. The loop calls it
// on the poll interval; tests may call it directly. It only sequences
// the phases; each takes c.mu for as long as its name says and no
// longer, and no RPC is ever issued under the lock.
func (c *Coordinator) Cycle() {
	start := time.Now()
	defer func() { mCycleDuration.ObserveDuration(time.Since(start)) }()

	results := c.pollFanOut(start)

	now := time.Now()
	c.mu.Lock()
	dead := c.absorbLocked(results, now)
	r := c.roundLocked(now)
	c.mu.Unlock()

	c.sample(r)
	// Drop pooled connections to stations declared dead this cycle.
	for _, addr := range dead {
		c.pool.Invalidate(addr)
	}
	c.act(r)
	c.lastCycleNanos.Store(time.Now().UnixNano())
	c.publish(r, start)
}

// pollResult is one station's answer to the cycle's poll. It carries
// the station's name and polled address, not the *station itself:
// registrations land while polls are in flight, so each result is
// re-resolved under the lock and dropped if the station vanished or
// re-registered elsewhere meanwhile — else a slow poll's failure could
// unregister, or a stale success resurrect, a fresh registration.
type pollResult struct {
	name  string
	addr  string
	reply proto.PollReply
	rtt   time.Duration
	err   error
}

// pollFanOut opens the cycle and polls every station (§2.1: "every two
// minutes the central coordinator polls the stations"), in name order.
func (c *Coordinator) pollFanOut(start time.Time) []pollResult {
	c.mu.Lock()
	c.stats.Cycles++
	if c.degraded {
		c.stats.DegradedCycles++
	}
	results := make([]pollResult, 0, len(c.stations))
	for _, s := range c.stations {
		if s.health.state == proto.HealthQuarantined && start.Before(s.health.probeAt) {
			// Quarantined stations leave the per-cycle fan-out; they are
			// probed on their own jittered exponential-backoff schedule.
			continue
		}
		results = append(results, pollResult{name: s.name, addr: s.addr})
	}
	c.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })

	// Bounded fan-out: the semaphore is acquired *before* the goroutine
	// spawns, so at most PollConcurrency polls (goroutines and dials) are
	// ever alive at once — a 10k-station pool streams through a fixed
	// window instead of bursting 10k goroutines each cycle.
	sem := make(chan struct{}, c.cfg.PollConcurrency)
	var wg sync.WaitGroup
	for i := range results {
		r := &results[i]
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			mPollInFlight.Inc()
			pollStart := time.Now()
			r.reply, r.err = c.pollStation(r.addr)
			r.rtt = time.Since(pollStart)
			mPollLatency.ObserveDuration(r.rtt)
			mPollInFlight.Dec()
		}()
	}
	wg.Wait()
	return results
}

// absorbLocked folds the poll results into the station table and each
// station's health record, then recomputes degraded mode. It returns
// the addresses of stations declared dead. Caller holds c.mu.
func (c *Coordinator) absorbLocked(results []pollResult, now time.Time) (dead []string) {
	slowRTT := c.cfg.RPCTimeout / slowRTTDivisor
	for _, r := range results {
		s, known := c.stations[r.name]
		if !known || s.addr != r.addr {
			// The station unregistered or re-registered at a new address
			// while this poll was in flight; the result describes a
			// previous incarnation.
			continue
		}
		ok := r.err == nil
		s.health.observe(slowRTT, r.rtt, ok)
		byz := ""
		if ok {
			c.stats.Polls++
			// A decoded reply can still be a lie: validate it for
			// impossible claims before trusting it for allocation.
			byz = byzantineReason(r.name, r.reply, c.knownHomeLocked)
		} else {
			c.stats.PollFails++
			mPollFails.Inc()
		}
		if addr := c.evalHealthLocked(s, now, ok, byz); addr != "" {
			dead = append(dead, addr)
			continue
		}
		// A failed poll or a poisoned reply keeps the previous picture
		// of the station and leaves it out of this cycle's decisions.
		s.reachable = ok && byz == ""
		if s.reachable {
			s.lastReply = r.reply
			s.lastPoll = now
		}
	}
	c.updateDegradedLocked(now)
	return dead
}

// round is what a cycle's locked phases hand to its unlocked ones.
type round struct {
	n  uint64    // cycle number
	at time.Time // when the poll fan-out finished
	// held counts machines per home station; states counts reachable
	// stations per state; updated holds the post-round Up-Down indexes
	// (empty while degraded); addrs maps every station to its address.
	held    map[string]int
	states  map[proto.StationState]int
	updated map[string]float64
	addrs   map[string]string
	aud     *decision.Builder
	dec     policy.Decision
}

// roundLocked runs the policy round over the fresh pool picture: every
// reachable station goes in with its graded health, and the pipeline's
// predicate chain — not this function — decides what a suspect or
// quarantined station may do. Caller holds c.mu.
func (c *Coordinator) roundLocked(now time.Time) round {
	r := round{
		n:       c.stats.Cycles,
		at:      now,
		held:    c.heldCountLocked(),
		states:  make(map[proto.StationState]int, 4),
		updated: make(map[string]float64, len(c.stations)),
		addrs:   make(map[string]string, len(c.stations)),
	}
	views := make([]policy.StationView, 0, len(c.stations))
	for _, s := range c.stations {
		r.addrs[s.name] = s.addr
		if !s.reachable {
			continue
		}
		r.states[s.lastReply.State]++
		views = append(views, policy.StationView{
			Name:         s.name,
			State:        s.lastReply.State,
			WaitingJobs:  s.lastReply.WaitingJobs,
			HeldMachines: r.held[s.name],
			ForeignJob:   s.lastReply.ForeignJob,
			ForeignOwner: s.lastReply.ForeignOwnerStation,
			DiskFree:     s.lastReply.DiskFreeBytes,
			IdleStreak:   time.Duration(s.lastReply.IdleStreakMillis) * time.Millisecond,
			AvgIdleLen:   time.Duration(s.lastReply.AvgIdleMillis) * time.Millisecond,
			ReservedFor:  c.reservationForLocked(s.name, now),
			Health:       s.health.state,
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	// Every live cycle is audited: the builder collects why each machine
	// was filtered/ranked/granted, job IDs are annotated as grants are
	// acted on, and the finished audit lands in the bounded decisions
	// ring (served by /decisions and the DecisionsRequest RPC).
	r.aud = decision.NewBuilder(r.n, now)
	// Degraded mode freezes up-down movement: when most of the pool is
	// unreachable, "holding" or "wanting" reflects the infrastructure
	// failure, not user behaviour, and charging (or crediting) indexes
	// for it would corrupt the fairness memory.
	r.dec = c.pipeline.Round(views, c.table, c.cfg.Policy, c.degraded, r.aud)
	if !c.degraded && len(views) > 0 {
		// The updated values are journaled as one batch record per cycle
		// — absolute values, so replay converges on the latest state
		// regardless of how many earlier batches survive.
		for i := range views {
			r.updated[views[i].Name] = c.table.Index(views[i].Name)
		}
		c.appendJournalLocked(persistRecord{Kind: recUpdown, Indexes: r.updated})
	}
	return r
}

// sample charges each home station for the remote capacity its jobs
// held this cycle, samples the cluster profile (the data behind the
// paper's Fig 5 utilization plot) plus every station's schedule-index
// trajectory, and snapshots the journal when one is due.
func (c *Coordinator) sample(r round) {
	for home, n := range r.held {
		c.led.Capacity(home, n, c.cfg.PollInterval)
	}
	sam := c.led.Sampler()
	total := float64(len(r.addrs))
	sam.Observe("stations", r.at, total)
	if total > 0 {
		frac := func(s proto.StationState) float64 { return float64(r.states[s]) / total }
		sam.Observe("util/owner", r.at, frac(proto.StationOwner))
		sam.Observe("util/idle", r.at, frac(proto.StationIdle))
		sam.Observe("util/claimed", r.at, frac(proto.StationClaimed))
		sam.Observe("util/suspended", r.at, frac(proto.StationSuspended))
	}
	for name, idx := range r.updated {
		sam.Observe("index/"+name, r.at, idx)
	}
	// Periodic snapshot: every SnapshotEvery cycles, or early when the
	// log has outgrown its compaction threshold.
	if c.journal != nil && (r.n%uint64(c.cfg.SnapshotEvery) == 0 || c.journal.NeedsCompaction()) {
		c.snapshotJournal()
	}
}

// act carries the round's decision out: grants, preemption orders,
// reservation enforcement, then the allocation totals to the journal.
func (c *Coordinator) act(r round) {
	// Which start of the state directory this is (0 in memory): stamped
	// on grant spans so a trace shows when allocation decisions straddle
	// a coordinator restart.
	var incarnation uint64
	if c.journal != nil {
		incarnation = c.journal.Stats().Incarnation
	}
	for gi, g := range r.dec.Grants {
		c.grant(r, gi, g, incarnation)
	}
	for _, p := range r.dec.Preempts {
		c.bump(func(st *Stats) { st.Preempts++ })
		mPreempts.Inc()
		c.led.Preempt(p.Victim)
		c.events.Append(eventlog.Event{
			Kind: eventlog.KindPreempt, Job: p.JobID, Station: p.Exec,
			Detail: fmt.Sprintf("%s outranks %s", p.Beneficiary, p.Victim),
		})
		_, _ = c.callStationRetry(r.addrs[p.Exec], proto.PreemptRequest{
			JobID:  p.JobID,
			Reason: fmt.Sprintf("up-down: %s outranks %s", p.Beneficiary, p.Victim),
		})
	}
	c.enforceReservations(r.addrs)

	// Persist the allocation totals touched this cycle as one absolute
	// batch record — same convention as recUpdown — so grant, preempt,
	// and capacity totals survive a coordinator restart.
	if c.journal != nil {
		if alloc := c.led.AllocSnapshot(); len(alloc) > 0 {
			c.mu.Lock()
			c.appendJournalLocked(persistRecord{Kind: recAcct, Alloc: alloc})
			c.mu.Unlock()
		}
	}
}

// grant offers one machine to its requester and books the outcome.
func (c *Coordinator) grant(r round, gi int, g policy.Grant, incarnation uint64) {
	c.bump(func(st *Stats) { st.Grants++ })
	mGrants.Inc()
	c.led.Grant(g.Requester)
	grantStart := time.Now()
	reply, err := c.callStation(r.addrs[g.Requester], proto.GrantRequest{
		ExecName: g.Exec,
		ExecAddr: r.addrs[g.Exec],
	})
	// A grant that never completed leaves gr zero: whether the station
	// would have used it is unknowable, so it counts as denied
	// capacity, like one the station declined.
	gr, _ := reply.(proto.GrantReply)
	if err == nil && gr.Used && gr.JobID == "" {
		// "Used" with no job named is a grant the coordinator never
		// placed — the byzantine signature on the grant path.
		c.mu.Lock()
		if s, ok := c.stations[g.Requester]; ok {
			c.stats.ByzantineReplies++
			mByzantine.Inc()
			c.setHealthLocked(s, proto.HealthQuarantined,
				"byzantine: claims used grant but names no job", time.Now())
		}
		c.mu.Unlock()
	}
	if err != nil || !gr.Used || gr.JobID == "" {
		c.bump(func(st *Stats) { st.GrantsDenied++ })
		mGrantsDenied.Inc()
		c.led.GrantDenied(g.Requester)
		return
	}
	c.bump(func(st *Stats) { st.GrantsUsed++ })
	mGrantsUsed.Inc()
	c.led.GrantUsed(g.Requester)
	// The pipeline granted a machine to a station; only now is the
	// concrete job known. Stamp it on the audit.
	r.aud.AnnotateGrantJob(gi, gr.JobID)
	// The reply names the placed job's trace; record the grant span
	// after the fact, backdated to cover the grant RPC. Old stations
	// send no trace and the span is simply skipped.
	var traceID string
	if sc, ok := trace.ParseTraceparent(gr.Trace); ok && sc.Sampled {
		traceID = sc.TraceID.String()
		trace.Record(trace.Span{
			TraceID: sc.TraceID,
			SpanID:  trace.NewSpanID(),
			Parent:  sc.SpanID,
			Name:    "grant",
			Job:     gr.JobID,
			Station: g.Exec,
			Start:   grantStart,
			End:     time.Now(),
			Attrs: []trace.Attr{
				{Key: "requester", Value: g.Requester},
				{Key: "incarnation", Value: fmt.Sprint(incarnation)},
			},
		})
	}
	// Stamped when the grant was issued, like its span: the station logs
	// the place it caused before this reply arrives.
	c.events.Append(eventlog.Event{
		At: grantStart, Kind: eventlog.KindGrant, Job: gr.JobID, Station: g.Exec,
		Detail: "granted to " + g.Requester, TraceID: traceID,
	})
	// Mark the exec station claimed immediately so this cycle's
	// state is not granted twice before the next poll.
	c.mu.Lock()
	if s, ok := c.stations[g.Exec]; ok {
		s.lastReply.State = proto.StationClaimed
		s.lastReply.ForeignJob = gr.JobID
		s.lastReply.ForeignOwnerStation = g.Requester
	}
	c.mu.Unlock()
}

// publish records the finished audit. The ring write is lock-free and
// bounded; the summary rides the eventlog (only for cycles that did
// something, so idle cycles don't drown job history) and the bus.
func (c *Coordinator) publish(r round, start time.Time) {
	audit := r.aud.Done()
	c.cfg.Decisions.Record(audit)
	acted := len(audit.Grants) > 0 || len(audit.Preempts) > 0 || len(audit.Unserved) > 0
	listening := telemetry.Events.Subscribers() > 0
	var summary string
	if acted || listening { // built (and allocated) only when someone reads it
		summary = fmt.Sprintf("cycle %d (%s): %d requesters, %d rejections, %d grants, %d unserved, %d preempts",
			r.n, audit.Policy, len(audit.Requesters), len(audit.Rejections),
			len(audit.Grants), len(audit.Unserved), len(audit.Preempts))
	}
	if acted {
		c.events.Append(eventlog.Event{Kind: eventlog.KindDecision, Detail: summary})
	}
	if listening {
		// One cycle-summary event per allocation cycle: the dashboard's
		// liveness signal.
		telemetry.Events.Publish(telemetry.BusEvent{
			Source: "coordinator", Kind: "cycle",
			Detail: fmt.Sprintf("cycle %d: %d stations, %d grants, %d preempts, %s",
				r.n, len(r.addrs), len(r.dec.Grants), len(r.dec.Preempts),
				time.Since(start).Round(time.Millisecond)),
		})
		// The decision drill-down's refresh signal: announces that cycle
		// r.n has a fresh audit on /decisions.
		telemetry.Events.Publish(telemetry.BusEvent{Source: "coordinator", Kind: "decision-cycle", Detail: summary})
	}
}

func (c *Coordinator) bump(f func(*Stats)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.stats)
}

func (c *Coordinator) pollStation(addr string) (proto.PollReply, error) {
	reply, err := c.callStationRetry(addr, proto.PollRequest{})
	pr, ok := reply.(proto.PollReply)
	if err == nil && !ok {
		err = fmt.Errorf("coordinator: unexpected poll reply %T", reply)
	}
	return pr, err
}

// callStation issues one station RPC over the pooled connection,
// bounded end-to-end by RPCTimeout. It never retries: use it for
// requests that are not idempotent (grants — a grant whose reply was
// lost may already have placed a job).
func (c *Coordinator) callStation(addr string, msg any) (any, error) {
	return c.callVia(c.pool.Call, addr, msg)
}

// callStationRetry is callStation under the pool's retry policy, for
// idempotent requests (polls, preempts, reservation releases): a
// transient transport fault is retried with backoff against a freshly
// dialed connection, still within the RPCTimeout budget.
func (c *Coordinator) callStationRetry(addr string, msg any) (any, error) {
	return c.callVia(c.pool.CallRetry, addr, msg)
}

func (c *Coordinator) callVia(call func(context.Context, string, any) (any, error), addr string, msg any) (any, error) {
	if addr == "" {
		return nil, errors.New("coordinator: no address")
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	defer cancel()
	return call(ctx, addr, msg)
}

// Index exposes a station's Up-Down index (for status and tests).
func (c *Coordinator) Index(name string) float64 { return c.table.Index(name) }
