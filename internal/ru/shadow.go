package ru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"condor/internal/accounting"
	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

// ErrPlacementRejected is returned when the execution site declines the
// job (owner active, already claimed, disk full, ...).
var ErrPlacementRejected = errors.New("ru: placement rejected")

// Events receives the shadow-side lifecycle callbacks. All callbacks are
// invoked from shadow-internal goroutines; implementations must be safe
// for concurrent use and must not block for long.
type Events interface {
	// JobDone fires when the job terminates (success or fault).
	JobDone(msg proto.JobDoneMsg)
	// JobVacated fires when a checkpoint comes back; the job should be
	// rescheduled from it.
	JobVacated(msg proto.JobVacatedMsg)
	// JobCheckpointed fires for periodic checkpoints of a still-running
	// job.
	JobCheckpointed(msg proto.JobCheckpointMsg)
	// JobSuspended / JobResumed are grace-period notices.
	JobSuspended(jobID string)
	JobResumed(jobID string)
	// JobLost fires when the connection to the execution site dies
	// without a terminal message: the execution machine crashed or was
	// shut down. The job should be rescheduled from its last checkpoint.
	JobLost(jobID string, err error)
}

// ShadowStats counts the local capacity a shadow spent supporting remote
// execution — the denominator of the paper's leverage metric.
type ShadowStats struct {
	Syscalls        uint64
	SyscallBytes    int64
	CheckpointsIn   uint64
	CheckpointBytes int64
}

// Shadow is the submit-side surrogate of one remotely executing job.
type Shadow struct {
	jobID    string
	execSite string
	peer     *wire.Peer
	events   Events
	handler  cvm.SyscallHandler
	// meter charges home-side support time (syscall service, checkpoint
	// ingest) to the job — the denominator of the leverage metric.
	meter *accounting.Meter

	syscalls  atomic.Uint64
	sysBytes  atomic.Int64
	ckptsIn   atomic.Uint64
	ckptBytes atomic.Int64

	mu       sync.Mutex
	terminal bool // saw JobDone or JobVacated

	closed chan struct{}
}

// placeTimeout bounds the placement handshake and, when DialRetry is
// set, the whole dial-retry loop before it.
const placeTimeout = 30 * time.Second

// PlaceConfig parameterizes a placement.
type PlaceConfig struct {
	// DialTimeout bounds one TCP connect attempt (default 5s, wire's).
	DialTimeout time.Duration
	// DialRetry, when set, retries the TCP connect under its policy.
	// Only the dial is ever retried: the PlaceRequest handshake runs at
	// most once, because a handshake whose reply was lost may already
	// have claimed the execution machine.
	DialRetry *wire.Retry
	// WriteTimeout bounds each frame write on the shadow's connection
	// (0 = unbounded), so a wedged execution machine cannot hang the
	// shadow mid-send.
	WriteTimeout time.Duration
	// FrameTimeout bounds completing an inbound frame once its first
	// byte has arrived (0 = unbounded). Idle waits between frames are
	// never timed out — Heartbeat covers those.
	FrameTimeout time.Duration
	// Heartbeat probes the execution machine's liveness so a half-open
	// connection (machine powered off mid-run) surfaces as JobLost
	// rather than a shadow waiting forever. Zero disables probing.
	Heartbeat time.Duration
}

// Place ships a job to the starter at execAddr and returns its shadow.
// The checkpoint blob is the job's full state (sequence zero for a fresh
// job). handler executes the job's system calls on this machine. ctx
// carries the caller's span context (trace.ContextWith) so the starter's
// execution joins the job's trace; context.Background() is fine for
// untraced callers.
func Place(
	ctx context.Context,
	execAddr string,
	req proto.PlaceRequest,
	handler cvm.SyscallHandler,
	events Events,
	cfg PlaceConfig,
) (*Shadow, error) {
	if handler == nil {
		return nil, errors.New("ru: nil syscall handler")
	}
	if events == nil {
		return nil, errors.New("ru: nil events sink")
	}
	s := &Shadow{
		jobID:    req.JobID,
		execSite: execAddr,
		events:   events,
		handler:  handler,
		meter:    accounting.Default.Job(req.JobID, req.Owner, req.HomeHost),
		closed:   make(chan struct{}),
	}
	dial := func() (*wire.Peer, error) {
		return wire.DialOpts(execAddr, wire.DialOptions{
			Timeout:      cfg.DialTimeout,
			WriteTimeout: cfg.WriteTimeout,
			FrameTimeout: cfg.FrameTimeout,
			Handler:      s.handle,
		})
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, placeTimeout)
	defer cancel()
	var peer *wire.Peer
	var err error
	if cfg.DialRetry != nil {
		err = cfg.DialRetry.Do(ctx, func() error {
			peer, err = dial()
			return err
		})
	} else {
		peer, err = dial()
	}
	if err != nil {
		return nil, err
	}
	if cfg.Heartbeat > 0 {
		peer.StartHeartbeat(wire.Heartbeat{Interval: cfg.Heartbeat})
	}
	s.peer = peer

	reply, err := peer.Call(ctx, req)
	if err != nil {
		if s.sawTerminal() {
			// The starter launches the executor before its PlaceReply is
			// written, so a job that ends at once can report that — and
			// hang up — first. The terminal event proves the placement
			// was accepted.
			go s.watch()
			return s, nil
		}
		peer.Close()
		return nil, fmt.Errorf("ru: place %s on %s: %w", req.JobID, execAddr, err)
	}
	pr, ok := reply.(proto.PlaceReply)
	if !ok {
		peer.Close()
		return nil, fmt.Errorf("ru: place %s: unexpected reply %T", req.JobID, reply)
	}
	if !pr.Accepted {
		peer.Close()
		return nil, fmt.Errorf("%w: %s", ErrPlacementRejected, pr.Reason)
	}
	go s.watch()
	return s, nil
}

// ExecSite returns the execution machine's address.
func (s *Shadow) ExecSite() string { return s.execSite }

// JobID returns the job this shadow serves.
func (s *Shadow) JobID() string { return s.jobID }

// Stats returns the local-support counters.
func (s *Shadow) Stats() ShadowStats {
	return ShadowStats{
		Syscalls:        s.syscalls.Load(),
		SyscallBytes:    s.sysBytes.Load(),
		CheckpointsIn:   s.ckptsIn.Load(),
		CheckpointBytes: s.ckptBytes.Load(),
	}
}

// Close tears the connection down (used when removing a job).
func (s *Shadow) Close() {
	s.peer.Close()
	<-s.closed
}

// watch turns an unexpected connection loss into a JobLost event.
func (s *Shadow) watch() {
	defer close(s.closed)
	<-s.peer.Done()
	if !s.sawTerminal() {
		err := s.peer.Err()
		if err == nil {
			err = errors.New("connection closed")
		}
		s.events.JobLost(s.jobID, err)
	}
}

func (s *Shadow) sawTerminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.terminal
}

func (s *Shadow) markTerminal() {
	s.mu.Lock()
	s.terminal = true
	s.mu.Unlock()
}

// handle serves the executor's requests and notices. ctx carries the
// executor's span context when it sampled the operation; handle records
// the shadow-side half (home-machine syscall service time, terminal
// events) as child spans, completing the cross-machine picture.
func (s *Shadow) handle(ctx context.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case proto.SyscallMsg:
		s.syscalls.Add(1)
		s.sysBytes.Add(int64(len(m.Req.Data)))
		sp := trace.StartChildIfSampled(trace.FromContext(ctx), "shadow-syscall")
		sp.SetJob(s.jobID)
		start := time.Now()
		rep, err := s.handler.Syscall(m.Req)
		elapsed := time.Since(start)
		sp.SetError(err)
		sp.Finish()
		if err != nil {
			s.meter.Syscall(len(m.Req.Data), elapsed)
			return nil, err
		}
		s.sysBytes.Add(int64(len(rep.Data)))
		s.meter.Syscall(len(m.Req.Data)+len(rep.Data), elapsed)
		return proto.SyscallReplyMsg{Rep: rep}, nil
	case proto.JobDoneMsg:
		sp := trace.StartChildIfSampled(trace.FromContext(ctx), "complete")
		sp.SetJob(s.jobID)
		s.markTerminal()
		s.events.JobDone(m)
		sp.Finish()
		return proto.Ack{}, nil
	case proto.JobVacatedMsg:
		s.ckptsIn.Add(1)
		s.ckptBytes.Add(int64(len(m.Checkpoint)))
		s.markTerminal()
		start := time.Now()
		s.events.JobVacated(m)
		s.meter.Support(time.Since(start)) // checkpoint ingest + requeue
		return proto.Ack{}, nil
	case proto.JobCheckpointMsg:
		s.ckptsIn.Add(1)
		s.ckptBytes.Add(int64(len(m.Checkpoint)))
		start := time.Now()
		s.events.JobCheckpointed(m)
		s.meter.Support(time.Since(start)) // checkpoint ingest
		return proto.Ack{}, nil
	case proto.JobSuspendedMsg:
		s.events.JobSuspended(m.JobID)
		return proto.Ack{}, nil
	case proto.JobResumedMsg:
		s.events.JobResumed(m.JobID)
		return proto.Ack{}, nil
	default:
		return nil, fmt.Errorf("ru: shadow got unexpected %T", msg)
	}
}
