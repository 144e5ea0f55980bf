package ru

import (
	"context"
	"fmt"
	"sync"
	"time"

	"condor/internal/accounting"
	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

// VacatePolicy selects what happens when the owner returns while a
// foreign job runs (§4).
type VacatePolicy int

// Vacate policies.
const (
	// VacateSuspendFirst stops the job immediately but keeps it resident
	// for SuspendGrace before checkpointing it off the machine — the
	// paper's deployed strategy ("many of the workstations' unavailable
	// intervals are short").
	VacateSuspendFirst VacatePolicy = iota + 1
	// VacateKillImmediately kills the job the moment the owner returns,
	// shipping the last periodic checkpoint (or the placement image) —
	// the §4 proposal that minimizes interference at the cost of lost
	// work since the last checkpoint.
	VacateKillImmediately
)

// StarterConfig tunes an execution site.
type StarterConfig struct {
	// Name is the machine name (for job metadata and logs).
	Name string
	// Monitor reports owner activity.
	Monitor machine.Monitor
	// ScanInterval is the owner-activity scan period (paper: 30 s).
	ScanInterval time.Duration
	// SuspendGrace is how long a suspended job is kept before being
	// vacated (paper: 5 minutes).
	SuspendGrace time.Duration
	// StepsPerSlice is how many instructions run between control checks.
	StepsPerSlice uint64
	// SliceDelay throttles execution between slices (0 = full speed).
	SliceDelay time.Duration
	// SyscallTimeout bounds one forwarded system call.
	SyscallTimeout time.Duration
	// Policy selects the owner-return behaviour.
	Policy VacatePolicy
	// PeriodicCheckpoint, when positive, checkpoints the running job to
	// its shadow at this interval (§4 proposal / A5 ablation).
	PeriodicCheckpoint time.Duration
}

func (c *StarterConfig) sanitize() {
	if c.ScanInterval <= 0 {
		c.ScanInterval = 30 * time.Second
	}
	if c.SuspendGrace <= 0 {
		c.SuspendGrace = 5 * time.Minute
	}
	if c.StepsPerSlice == 0 {
		c.StepsPerSlice = 200_000
	}
	if c.SyscallTimeout <= 0 {
		c.SyscallTimeout = 30 * time.Second
	}
	if c.Policy == 0 {
		c.Policy = VacateSuspendFirst
	}
}

// StarterStats counts execution-site activity.
type StarterStats struct {
	Accepted      uint64
	Rejected      uint64
	Completed     uint64
	Faulted       uint64
	Vacated       uint64
	Suspends      uint64
	Resumes       uint64
	PeriodicCkpts uint64
}

// Starter executes at most one foreign job on this machine, scanning for
// owner activity and vacating per policy.
type Starter struct {
	cfg StarterConfig

	mu          sync.Mutex
	cur         *execution
	curRunning  bool // false while suspended
	suspendedAt time.Time
	stats       StarterStats
	// idle is the owner's availability history, fed by every scan.
	idle machine.Tracker

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewStarter creates a starter and begins its owner-activity scan loop.
// Call Close to stop it.
func NewStarter(cfg StarterConfig) (*Starter, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("ru: starter %q needs a monitor", cfg.Name)
	}
	cfg.sanitize()
	st := &Starter{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go st.scanLoop()
	return st, nil
}

// Close stops the scan loop. A resident job's connection is closed, which
// its shadow observes as JobLost and reschedules from the last checkpoint
// — exactly the paper's machine-shutdown recovery path.
func (st *Starter) Close() {
	st.closeOnce.Do(func() { close(st.stop) })
	<-st.done
	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()
	if cur != nil {
		cur.abort()
	}
}

// Stats returns a snapshot of the starter's counters.
func (st *Starter) Stats() StarterStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// IdleStreak returns how long the owner scan has seen the owner away at
// now (zero while the owner is active). With AvgIdleLen it is what the
// station's poll reply carries for §5.1 history placement.
func (st *Starter) IdleStreak(now time.Time) time.Duration { return st.idle.IdleStreak(now) }

// AvgIdleLen returns the mean length of the owner's completed absences
// seen by the owner scan.
func (st *Starter) AvgIdleLen() time.Duration { return st.idle.AvgIdleLen() }

// Running returns the resident foreign job's id and owner, if any.
func (st *Starter) Running() (jobID, owner string, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur == nil {
		return "", "", false
	}
	return st.cur.jobID, st.cur.owner, true
}

// Suspended reports whether the resident job is currently suspended.
func (st *Starter) Suspended() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cur != nil && !st.curRunning
}

// Vacate orders the resident job (if it matches jobID; empty matches any)
// checkpointed and returned to its shadow. Used for coordinator
// preemptions. It reports whether a vacate was initiated.
func (st *Starter) Vacate(jobID, reason string) bool {
	st.mu.Lock()
	cur := st.cur
	st.mu.Unlock()
	if cur == nil || (jobID != "" && cur.jobID != jobID) {
		return false
	}
	cur.post(ctl{kind: ctlVacate, reason: reason})
	return true
}

// Handler returns the wire handler for one inbound connection; stationd
// installs it in its wire.Server for placement connections.
func (st *Starter) Handler(peer *wire.Peer) wire.Handler {
	return func(ctx context.Context, msg any) (any, error) {
		place, ok := msg.(proto.PlaceRequest)
		if !ok {
			return nil, fmt.Errorf("ru: starter got unexpected %T", msg)
		}
		return st.place(ctx, peer, place)
	}
}

func (st *Starter) place(ctx context.Context, peer *wire.Peer, req proto.PlaceRequest) (proto.PlaceReply, error) {
	reject := func(reason string) (proto.PlaceReply, error) {
		st.mu.Lock()
		st.stats.Rejected++
		st.mu.Unlock()
		return proto.PlaceReply{Accepted: false, Reason: reason}, nil
	}
	if st.cfg.Monitor.OwnerActive() {
		return reject("owner active")
	}
	meta, img, err := ckpt.DecodeBytes(req.Checkpoint)
	if err != nil {
		return reject(fmt.Sprintf("bad checkpoint: %v", err))
	}
	// Join the job's trace: prefer the live span context propagated on
	// the placement envelope; fall back to the trace ID persisted in the
	// checkpoint metadata (the schedd predates tracing, or the placement
	// came through an old peer that stripped the field).
	parent := trace.FromContext(ctx)
	if !parent.Valid() && meta.TraceID != "" {
		if sc, ok := trace.Resume(meta.TraceID); ok {
			parent = sc
		}
	}
	span := trace.StartChildIfSampled(parent, "exec")
	span.SetJob(req.JobID)
	span.SetStation(st.cfg.Name)
	span.SetAttr("seq", fmt.Sprint(meta.Sequence))
	exec := &execution{
		starter:  st,
		jobID:    req.JobID,
		owner:    req.Owner,
		home:     req.HomeHost,
		peer:     peer,
		meta:     meta,
		lastCkpt: req.Checkpoint,
		// The placement image already covers the steps in its metadata: a
		// kill before the first periodic checkpoint loses only work done
		// here, not the whole pre-migration history.
		lastCkptSteps: meta.CPUSteps,
		meter:         accounting.Default.Job(req.JobID, req.Owner, req.HomeHost),
		ctl:           make(chan ctl, 8),
		span:          span,
		traceCtx:      span.Context(),
	}
	vm, err := cvm.Restore(img, &remoteHandler{
		peer:    peer,
		jobID:   req.JobID,
		timeout: st.cfg.SyscallTimeout,
		parent:  exec.traceCtx,
	})
	if err != nil {
		exec.span.SetError(err)
		exec.span.Finish()
		return reject(fmt.Sprintf("restore: %v", err))
	}
	exec.vm = vm

	st.mu.Lock()
	if st.cur != nil {
		st.mu.Unlock()
		exec.span.Finish()
		return reject("machine already claimed")
	}
	st.cur = exec
	st.curRunning = true
	st.stats.Accepted++
	st.mu.Unlock()

	go exec.run()
	return proto.PlaceReply{Accepted: true}, nil
}

// clear removes exec as the resident job if it still is.
func (st *Starter) clear(exec *execution) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cur == exec {
		st.cur = nil
		st.curRunning = false
	}
}

// scanLoop is the local scheduler's ½-minute owner scan (§2.1), which
// keeps the machine's idle history, plus the 5-minute grace bookkeeping
// (§4).
func (st *Starter) scanLoop() {
	defer close(st.done)
	ticker := time.NewTicker(st.cfg.ScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case <-ticker.C:
			st.scanOnce(time.Now())
		}
	}
}

func (st *Starter) scanOnce(now time.Time) {
	active := st.cfg.Monitor.OwnerActive()
	st.idle.Observe(!active, now)
	st.mu.Lock()
	cur := st.cur
	running := st.curRunning
	suspendedAt := st.suspendedAt
	if cur == nil {
		st.mu.Unlock()
		return
	}
	switch {
	case active && running:
		if st.cfg.Policy == VacateKillImmediately {
			st.mu.Unlock()
			cur.post(ctl{kind: ctlKill, reason: "owner returned"})
			return
		}
		st.curRunning = false
		st.suspendedAt = now
		st.stats.Suspends++
		st.mu.Unlock()
		cur.post(ctl{kind: ctlSuspend})
	case active && !running:
		if now.Sub(suspendedAt) >= st.cfg.SuspendGrace {
			st.mu.Unlock()
			cur.post(ctl{kind: ctlVacate, reason: "owner returned (grace expired)"})
			return
		}
		st.mu.Unlock()
	case !active && !running:
		st.curRunning = true
		st.stats.Resumes++
		st.mu.Unlock()
		cur.post(ctl{kind: ctlResume})
	default:
		st.mu.Unlock()
	}
}

func (st *Starter) bump(f func(*StarterStats)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f(&st.stats)
}
