package schedd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"condor/internal/accounting"
	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/eventlog"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/telemetry"
	"condor/internal/trace"
	"condor/internal/wire"
)

// Station-level errors.
var (
	// ErrQueueClosed is returned for operations on a closed station.
	ErrQueueClosed = errors.New("schedd: station closed")
	// ErrNoSuchJob is returned when a job id is unknown.
	ErrNoSuchJob = errors.New("schedd: no such job")
)

// HostFactory builds the syscall handler (the "files of the submitting
// machine") for one job. The default gives every job a private in-memory
// filesystem.
type HostFactory func(jobID, owner string) cvm.SyscallHandler

// StdoutReader is implemented by hosts that can report what the job
// printed (cvm.MemHost does); the station surfaces it in JobStatus.
type StdoutReader interface {
	Stdout() string
}

// Config parameterizes a station.
type Config struct {
	// Name is the workstation name (must be unique in the pool).
	Name string
	// ListenAddr is the bind address (default "127.0.0.1:0").
	ListenAddr string
	// AdvertiseAddr, when set, is the address the station registers with
	// the coordinator instead of its listen address — for deployments
	// (and chaos harnesses) where inbound traffic arrives through a
	// proxy or NAT rather than directly at the listener.
	AdvertiseAddr string
	// Monitor reports the owner's activity; required.
	Monitor machine.Monitor
	// Store is the checkpoint store (default: unlimited in-memory with
	// shared text segments, as §4 recommends).
	Store ckpt.Store
	// Hosts builds per-job syscall handlers (default: private MemHost).
	Hosts HostFactory
	// Starter configures the execution side. Name and Monitor are filled
	// in from the station.
	Starter ru.StarterConfig
	// PlacementPacing is the minimum gap between two placements from
	// this station (paper: one per 2 minutes, §4).
	PlacementPacing time.Duration
	// DialTimeout bounds outbound connections.
	DialTimeout time.Duration
	// PlacementHeartbeat probes execution machines hosting this
	// station's jobs (default 15s; negative disables).
	PlacementHeartbeat time.Duration
	// WaitTimeout bounds a WaitRequest (default 10 minutes).
	WaitTimeout time.Duration
}

func (c *Config) sanitize() error {
	if c.Name == "" {
		return errors.New("schedd: station needs a name")
	}
	if c.Monitor == nil {
		return fmt.Errorf("schedd: station %q needs a monitor", c.Name)
	}
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Store == nil {
		c.Store = ckpt.NewMemStore(0, true)
	}
	if c.Hosts == nil {
		c.Hosts = func(jobID, owner string) cvm.SyscallHandler { return cvm.NewMemHost() }
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.PlacementHeartbeat == 0 {
		c.PlacementHeartbeat = 15 * time.Second
	}
	if c.PlacementHeartbeat < 0 {
		c.PlacementHeartbeat = 0
	}
	if c.WaitTimeout <= 0 {
		c.WaitTimeout = 10 * time.Minute
	}
	return nil
}

// Station is the per-workstation daemon.
type Station struct {
	cfg     Config
	server  *wire.Server
	starter *ru.Starter
	events  *eventlog.Log
	// pool caches the station's outbound control connections (to the
	// coordinator), so the registrar does not dial fresh on every
	// re-registration check.
	pool *wire.ClientPool

	// gQueue / gWaiting are this station's interned queue-depth gauges.
	gQueue   *telemetry.Gauge
	gWaiting *telemetry.Gauge

	mu            sync.Mutex
	jobs          map[string]*job
	order         []string // submission order (local FIFO priority)
	waiting       int      // jobs in state idle (kept by stepLocked)
	nextNum       int
	lastPlacement time.Time
	lastPolled    time.Time
	closed        bool

	stop chan struct{}
}

// New creates and starts a station: its wire server and its starter, whose
// owner scan lets the machine host foreign jobs and keeps its idle
// history.
func New(cfg Config) (*Station, error) {
	if err := cfg.sanitize(); err != nil {
		return nil, err
	}
	st := &Station{
		cfg:      cfg,
		jobs:     make(map[string]*job),
		events:   eventlog.New(eventlog.DefaultCapacity),
		gQueue:   mQueueDepth.With(cfg.Name),
		gWaiting: mWaitingJobs.With(cfg.Name),
		stop:     make(chan struct{}),
	}
	// The station's job-lifecycle trail (submit, place, vacate,
	// complete, ...) also rides the process event bus for the
	// dashboard's SSE fan-out; free while nobody subscribes.
	st.events.SetNotify(func(e eventlog.Event) {
		telemetry.Events.Publish(telemetry.BusEvent{
			At: e.At, Source: "station/" + cfg.Name, Kind: string(e.Kind),
			Job: e.Job, Station: e.Station, Detail: e.Detail, TraceID: e.TraceID,
		})
	})
	starterCfg := cfg.Starter
	starterCfg.Name = cfg.Name
	starterCfg.Monitor = cfg.Monitor
	starter, err := ru.NewStarter(starterCfg)
	if err != nil {
		return nil, err
	}
	st.starter = starter
	st.pool = wire.NewClientPool(wire.PoolConfig{DialTimeout: cfg.DialTimeout})
	server, err := wire.NewServer(cfg.ListenAddr, st.handlerFor)
	if err != nil {
		starter.Close()
		st.pool.Close()
		return nil, err
	}
	st.server = server
	st.recoverJobs()
	return st, nil
}

// recoverJobs rebuilds the queue from checkpoints found in the store —
// the submitter-reboot half of the completion guarantee: with a durable
// store (ckpt.NewDirStore), a machine crash on the *submitting* side loses
// no queued or checkpointed work either. The original submission time
// and priority ride in the checkpoint metadata, so the recovered queue
// keeps its pre-restart order (submission order, not the store's
// lexicographic listing, which would rank "ws/10" before "ws/2").
func (st *Station) recoverJobs() {
	prefix := st.cfg.Name + "/"
	var found []ckpt.Meta
	for _, meta := range st.cfg.Store.List() {
		if strings.HasPrefix(meta.JobID, prefix) { // a foreign job's checkpoint is not ours to queue
			found = append(found, meta)
		}
	}
	// Submission order: the numeric job counter is assigned at submit
	// time and never reused, so it is the exact original order; the
	// persisted timestamp is restored alongside for display and any
	// age-based policy.
	num := func(meta ckpt.Meta) int {
		n, err := strconv.Atoi(meta.JobID[len(prefix):])
		if err != nil {
			return 0
		}
		return n
	}
	sort.Slice(found, func(a, b int) bool { return num(found[a]) < num(found[b]) })
	for _, meta := range found {
		st.nextNum = max(st.nextNum, num(meta))
		submittedAt := time.Now()
		if meta.SubmittedAtUnixMilli != 0 {
			submittedAt = time.UnixMilli(meta.SubmittedAtUnixMilli)
		}
		recoveredAt := time.Now()
		j := &job{
			status: proto.JobStatus{
				ID:           meta.JobID,
				Owner:        meta.Owner,
				Program:      meta.ProgramName,
				SubmittedAt:  submittedAt,
				CPUSteps:     meta.CPUSteps,
				Checkpoints:  int(meta.Sequence),
				Priority:     meta.Priority,
				WaitingSince: recoveredAt,
			},
			host:     st.cfg.Hosts(meta.JobID, meta.Owner),
			meter:    accounting.Default.Job(meta.JobID, meta.Owner, st.cfg.Name),
			finished: make(chan struct{}),
		}
		// The recovered checkpoint already carries executed steps; a new
		// idle episode starts now (the pre-crash wait was lost with the
		// process, so it is not charged).
		j.meter.ObserveSteps(meta.CPUSteps)
		j.meter.StartWaiting(recoveredAt)
		// Resume the job's trace from the checkpoint metadata and record
		// a "recover" anchor span post-restart spans hang off, so one
		// trace spans the schedd crash.
		if sc, ok := trace.Resume(meta.TraceID); ok {
			j.traceCtx = sc
			trace.Record(trace.Span{
				TraceID: sc.TraceID, SpanID: sc.SpanID, Name: "recover",
				Job: meta.JobID, Station: st.cfg.Name, Start: recoveredAt, End: recoveredAt,
				Attrs: []trace.Attr{{Key: "seq", Value: strconv.FormatUint(meta.Sequence, 10)}},
			})
		}
		st.jobs[meta.JobID] = j
		st.order = append(st.order, meta.JobID)
		st.stepLocked(j, evRecover, j.epoch)
		st.logEvent(eventlog.KindSubmit, j, st.cfg.Name,
			fmt.Sprintf("recovered from checkpoint (seq %d)", meta.Sequence))
	}
}

// Name returns the station name.
func (st *Station) Name() string { return st.cfg.Name }

// Addr returns the station's listen address.
func (st *Station) Addr() string { return st.server.Addr() }

// Starter exposes the execution side (for pool wiring and tests).
func (st *Station) Starter() *ru.Starter { return st.starter }

// Store exposes the checkpoint store (for disk accounting and tools).
func (st *Station) Store() ckpt.Store { return st.cfg.Store }

// Events exposes the station's event history.
func (st *Station) Events() *eventlog.Log { return st.events }

// logEvent records one step of j's life. A job's ID and trace anchor
// never change, so they are read without st.mu.
func (st *Station) logEvent(kind eventlog.Kind, j *job, station, detail string) {
	var traceID string
	if j.traceCtx.Valid() {
		traceID = j.traceCtx.TraceID.String()
	}
	st.events.Append(eventlog.Event{
		Kind: kind, Job: j.status.ID, Station: station, Detail: detail, TraceID: traceID,
	})
}

// traceCtxOf returns the job's trace anchor (zero when unknown/untraced).
func (st *Station) traceCtxOf(jobID string) trace.SpanContext {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j, ok := st.jobs[jobID]; ok {
		return j.traceCtx
	}
	return trace.SpanContext{}
}

// Close shuts the station down.
func (st *Station) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	shadows := make([]*ru.Shadow, 0, len(st.jobs))
	for _, j := range st.jobs {
		if j.shadow != nil {
			shadows = append(shadows, j.shadow)
		}
	}
	st.mu.Unlock()
	close(st.stop)
	for _, sh := range shadows {
		sh.Close()
	}
	st.server.Close()
	st.starter.Close()
	st.pool.Close()
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// StackWords overrides the VM's default stack size (0 = default).
	StackWords int
	// Priority orders the job in the local queue: higher runs first,
	// ties break FIFO. The coordinator never sees priorities — which job
	// a grant runs is the station's own decision (§2.1).
	Priority int
}

// Submit queues a program for background execution and returns the job
// id. It fails with ckpt.ErrDiskFull when the checkpoint store cannot
// hold the job's initial image (§4's disk-space limit on simultaneous
// jobs).
func (st *Station) Submit(owner string, prog *cvm.Program, stackWords int) (string, error) {
	return st.SubmitJob(owner, prog, SubmitOptions{StackWords: stackWords})
}

// SubmitJob is Submit with full options.
func (st *Station) SubmitJob(owner string, prog *cvm.Program, opts SubmitOptions) (string, error) {
	if prog == nil {
		return "", errors.New("schedd: nil program")
	}
	if err := prog.Validate(); err != nil {
		return "", err
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return "", ErrQueueClosed
	}
	st.nextNum++
	jobID := fmt.Sprintf("%s/%d", st.cfg.Name, st.nextNum)
	st.mu.Unlock()

	// The submit span is the root of the job's entire distributed trace;
	// its ID rides the checkpoint metadata so the trace keeps following
	// the job across migrations and restarts.
	span := trace.StartRoot("submit")
	span.SetJob(jobID)
	span.SetStation(st.cfg.Name)
	traceCtx := span.Context()

	submittedAt := time.Now()
	meta := ckpt.Meta{
		JobID: jobID, Owner: owner, ProgramName: prog.Name,
		SubmittedAtUnixMilli: submittedAt.UnixMilli(),
		Priority:             opts.Priority,
		TraceID:              traceCtx.TraceID.String(),
	}
	blob, err := ru.InitialCheckpoint(meta, prog, opts.StackWords)
	if err == nil {
		_, err = st.cfg.Store.PutBlob(jobID, blob)
	}
	if err != nil {
		span.SetError(err)
		span.Finish()
		return "", fmt.Errorf("schedd: submit %s: %w", jobID, err)
	}

	j := &job{
		status: proto.JobStatus{
			ID:           jobID,
			Owner:        owner,
			Program:      prog.Name,
			SubmittedAt:  submittedAt,
			Priority:     opts.Priority,
			WaitingSince: submittedAt,
		},
		host:     st.cfg.Hosts(jobID, owner),
		traceCtx: traceCtx,
		meter:    accounting.Default.Job(jobID, owner, st.cfg.Name),
		finished: make(chan struct{}),
	}
	j.meter.StartWaiting(submittedAt)
	st.mu.Lock()
	st.jobs[jobID] = j
	st.order = append(st.order, jobID)
	st.stepLocked(j, evSubmit, j.epoch)
	st.mu.Unlock()
	span.Finish()
	st.logEvent(eventlog.KindSubmit, j, st.cfg.Name,
		fmt.Sprintf("%s by %s (pri %d)", prog.Name, owner, opts.Priority))
	return jobID, nil
}

// Job returns a job's status.
func (st *Station) Job(jobID string) (proto.JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[jobID]
	if !ok {
		return proto.JobStatus{}, fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	return st.statusLocked(j), nil
}

func (st *Station) statusLocked(j *job) proto.JobStatus {
	status := j.status
	if r, ok := j.host.(StdoutReader); ok {
		status.Stdout = r.Stdout()
	}
	return status
}

// Queue returns all jobs sorted by submission order.
func (st *Station) Queue() []proto.JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]proto.JobStatus, 0, len(st.order))
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			out = append(out, st.statusLocked(j))
		}
	}
	return out
}

// WaitingJobs counts jobs wanting remote capacity.
func (st *Station) WaitingJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.waiting
}

// Remove deletes a job; a running job's shadow connection is torn down,
// which vacates the execution machine (a job still being placed is
// vacated when its placement lands). Removing a finished job changes
// nothing.
func (st *Station) Remove(jobID string) bool {
	st.mu.Lock()
	j, ok := st.jobs[jobID]
	if !ok || !st.stepLocked(j, evRemove, j.epoch) {
		st.mu.Unlock()
		return ok
	}
	shadow := j.shadow
	j.shadow = nil
	st.mu.Unlock()
	if shadow != nil {
		shadow.Close()
	}
	_ = st.cfg.Store.Delete(jobID)
	accounting.Default.Retire(jobID)
	st.logEvent(eventlog.KindRemove, j, st.cfg.Name, "")
	close(j.finished)
	return true
}

// Wait blocks until the job reaches a terminal state or the timeout.
func (st *Station) Wait(jobID string, timeout time.Duration) (proto.JobStatus, error) {
	st.mu.Lock()
	j, ok := st.jobs[jobID]
	st.mu.Unlock()
	if !ok {
		return proto.JobStatus{}, fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-j.finished:
	case <-timer.C:
	case <-st.stop:
		select {
		case <-j.finished: // a finished job's status outlives the station
		default:
			return proto.JobStatus{}, ErrQueueClosed
		}
	}
	return st.Job(jobID)
}

// State reports the station's scheduling state for coordinator polls.
func (st *Station) State() proto.StationState {
	if _, _, ok := st.starter.Running(); ok {
		if st.starter.Suspended() {
			return proto.StationSuspended
		}
		return proto.StationClaimed
	}
	if st.cfg.Monitor.OwnerActive() {
		return proto.StationOwner
	}
	return proto.StationIdle
}

// diskFree reports remaining checkpoint-store space (MaxInt64 when
// unlimited).
func (st *Station) diskFree() int64 {
	capacity := st.cfg.Store.Capacity()
	if capacity <= 0 {
		return int64(1) << 62
	}
	return max(capacity-st.cfg.Store.Usage().Bytes, 0)
}

// nextIdleJobLocked picks the station's next job to place: highest
// priority first, FIFO within a priority level (the local scheduler's
// own policy, §2.1).
func (st *Station) nextIdleJobLocked() (*job, bool) {
	var best *job
	for _, id := range st.order {
		j, ok := st.jobs[id]
		if !ok || j.status.State != proto.JobIdle {
			continue
		}
		if best == nil || j.status.Priority > best.status.Priority {
			best = j
		}
	}
	return best, best != nil
}

// PlaceNext places the station's next idle job on the execution machine
// at execAddr. It is called when the coordinator grants capacity. ctx's
// deadline, if any, bounds the placement handshake as well as its own.
func (st *Station) PlaceNext(ctx context.Context, execName, execAddr string) (string, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return "", ErrQueueClosed
	}
	if st.cfg.PlacementPacing > 0 && time.Since(st.lastPlacement) < st.cfg.PlacementPacing {
		st.mu.Unlock()
		return "", fmt.Errorf("schedd: placement pacing (next allowed in %v)",
			st.cfg.PlacementPacing-time.Since(st.lastPlacement))
	}
	j, ok := st.nextIdleJobLocked()
	if !ok {
		st.mu.Unlock()
		return "", errors.New("schedd: no idle jobs")
	}
	st.stepLocked(j, evPlace, j.epoch)
	j.status.ExecHost = execName
	jobID := j.status.ID
	owner := j.status.Owner
	host := j.host
	jobTrace := j.traceCtx
	epoch := j.epoch
	st.mu.Unlock()

	// The place span covers checkpoint read + handshake; the starter's
	// exec span hangs off it via the wire's trace context. The stored
	// blob ships as it is: it was verified when it came in.
	span := trace.StartChildIfSampled(jobTrace, "place")
	span.SetJob(jobID)
	span.SetStation(execName)

	_, blob, err := st.cfg.Store.GetBlob(jobID)
	if err != nil {
		span.SetError(err)
		span.Finish()
		st.placeFailed(j, epoch)
		return "", fmt.Errorf("schedd: checkpoint for %s: %w", jobID, err)
	}
	placeCtx := ctx
	if span.Recording() {
		placeCtx = trace.ContextWith(placeCtx, span.Context())
	}
	shadow, err := ru.Place(placeCtx, execAddr, proto.PlaceRequest{
		JobID:      jobID,
		Owner:      owner,
		HomeHost:   st.cfg.Name,
		Checkpoint: blob,
	}, host, &jobEvents{station: st, jobID: jobID, epoch: epoch}, ru.PlaceConfig{
		DialTimeout: st.cfg.DialTimeout,
		Heartbeat:   st.cfg.PlacementHeartbeat,
	})
	if err != nil {
		span.SetError(err)
		span.Finish()
		st.placeFailed(j, epoch)
		return "", err
	}
	span.Finish()

	// The shadow's events race this block: a job that halts in its first
	// slice can deliver JobDone (or lose its connection) before ru.Place
	// has returned here, and the owner can remove it meanwhile. The table
	// decides: a job still on the machine keeps the shadow; one that has
	// finished or been requeued keeps that state, and its shadow, which
	// has already let go of the link, is dropped; a removed one refuses
	// the edge, and closing its shadow vacates the machine.
	st.mu.Lock()
	took := st.stepLocked(j, evPlaced, epoch)
	state := j.status.State
	if !took {
		st.mu.Unlock()
		shadow.Close()
		return "", fmt.Errorf("schedd: %s is %v, placement on %s dropped", jobID, state, execName)
	}
	if state == proto.JobRunning || state == proto.JobSuspendedState {
		j.shadow = shadow
		j.status.WaitingSince = time.Time{}
	}
	st.placedLocked(j, epoch)
	st.mu.Unlock()
	return jobID, nil
}

// placedLocked books placement epoch once, at the first proof that the
// machine took the job: PlaceNext's placed edge, or the first notice of
// the epoch the table accepts, whichever lands first. A notice can
// overtake the placed edge, and a JobDone retires the job's meter, so
// the booking must precede the notice's own. Booking under st.mu keeps
// the trail's place event ahead of the notice's event; the meter, the
// event log and its bus hook take only their own locks, never st.mu.
// Callers hold st.mu.
func (st *Station) placedLocked(j *job, epoch uint64) {
	if j.placedEpoch == epoch {
		return
	}
	j.placedEpoch = epoch
	now := time.Now()
	j.status.Placements++
	st.lastPlacement = now
	j.meter.Placed(now)
	st.logEvent(eventlog.KindPlace, j, j.status.ExecHost, "")
}

// placeFailed requeues a job whose placement failed. A job removed
// meanwhile stays removed.
func (st *Station) placeFailed(j *job, epoch uint64) {
	st.mu.Lock()
	if st.stepLocked(j, evPlaceFailed, epoch) {
		j.status.ExecHost = ""
	}
	st.mu.Unlock()
}
