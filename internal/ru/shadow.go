package ru

import (
	"context"
	"errors"
	"fmt"
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

// Shadow is the submit-side surrogate of one remotely executing job.
type Shadow struct {
	jobID   string
	link    *link
	events  Events
	handler cvm.SyscallHandler
	// meter charges home-side support time (syscall service, checkpoint
	// ingest) to the job — the denominator of the leverage metric.
	meter *accounting.Meter

	released chan struct{} // closed when the link is handed back
	closed   chan struct{} // closed when watch has ended
}

// placeTimeout bounds the placement handshake and the dial-retry loop
// before it.
const placeTimeout = 30 * time.Second

// PlaceConfig parameterizes a placement.
type PlaceConfig struct {
	// DialTimeout bounds one TCP connect attempt (default 5s, wire's).
	// The connect is retried under wire.Retry; the PlaceRequest
	// handshake runs at most once, because a handshake whose reply was
	// lost may already have claimed the execution machine. It
	// only matters when no idle link to the machine is kept.
	DialTimeout time.Duration
	// Heartbeat probes the execution machine's liveness so a half-open
	// link (machine powered off mid-run) surfaces as JobLost rather than
	// a shadow waiting forever, and an idle one is dropped. Zero disables
	// probing. It is part of a link: only placements that agree on it
	// share one.
	Heartbeat time.Duration
}

// Place ships a job to the starter at execAddr and returns its shadow.
// It rides an idle link to execAddr when one is kept and dials one
// otherwise; the shadow hands the link back after the job's terminal
// message (see link). The checkpoint blob is the job's full state
// (sequence zero for a fresh job). handler executes the job's system
// calls on this machine. ctx carries the caller's span context
// (trace.ContextWith) so the starter's execution joins the job's trace;
// context.Background() is fine for untraced callers.
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
		events:   events,
		handler:  handler,
		meter:    accounting.Default.Job(req.JobID, req.Owner, req.HomeHost),
		released: make(chan struct{}),
		closed:   make(chan struct{}),
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, placeTimeout)
	defer cancel()
	key := linkKey{execAddr, cfg.Heartbeat}
	// The handshake runs at most once: it moves from a reused link to a
	// fresh dial only when its request provably never left. Once the frame
	// is written, a lost reply may hide a placement that already claimed
	// the machine, so any failure is a failed placement.
	var reply any
	var err error
	l, reused := takeIdle(key), true
	for {
		if l == nil {
			if l, err = dialLink(ctx, key, cfg.DialTimeout); err != nil {
				return nil, err
			}
			reused = false
		}
		l.bind(s)
		reply, err = l.peer.Call(ctx, req)
		if err == nil || !reused || !errors.Is(err, wire.ErrNotSent) {
			break
		}
		l.unbind(s)
		l.peer.Close()
		l = nil
	}
	if reused {
		mLinksReused.Inc()
	} else {
		mLinksDialed.Inc()
	}
	if err != nil {
		if !l.unbind(s) {
			// The starter launches the executor before its PlaceReply is
			// written, so a job that ends at once can report that before
			// the reply, and the link can die in between. Its terminal
			// message, which took the link back, proves the placement was
			// accepted.
			go s.watch()
			return s, nil
		}
		l.peer.Close()
		return nil, fmt.Errorf("ru: place %s on %s: %w", req.JobID, execAddr, err)
	}
	pr, ok := reply.(proto.PlaceReply)
	if !ok {
		if l.unbind(s) {
			l.peer.Close()
		}
		return nil, fmt.Errorf("ru: place %s: unexpected reply %T", req.JobID, reply)
	}
	if !pr.Accepted {
		if l.unbind(s) {
			l.putIdle()
		}
		return nil, fmt.Errorf("%w: %s", ErrPlacementRejected, pr.Reason)
	}
	go s.watch()
	return s, nil
}

// JobID returns the job this shadow serves.
func (s *Shadow) JobID() string { return s.jobID }

// Close tears the job's link down (used when removing a job), unless the
// shadow has already handed it back: by then the link may carry another
// job.
func (s *Shadow) Close() {
	s.link.closeIfBound(s)
	<-s.closed
}

// watch ends when the shadow hands its link back or the link dies; a link
// that dies while it still carries the job (no terminal message took it
// back) is a JobLost event.
func (s *Shadow) watch() {
	defer close(s.closed)
	select {
	case <-s.released:
	case <-s.link.peer.Done():
		if s.link.unbind(s) {
			err := s.link.peer.Err()
			if err == nil {
				err = errors.New("connection closed")
			}
			s.events.JobLost(s.jobID, err)
		}
	}
}

// handBack returns the link to the idle pool on the job's terminal
// message. It runs before the event is delivered, so the machine's next
// placement from this station can ride the link at once.
func (s *Shadow) handBack() {
	if s.link.unbind(s) {
		close(s.released)
		s.link.putIdle()
	}
}

// handle serves the executor's requests and notices. ctx carries the
// executor's span context when it sampled the operation; handle records
// the shadow-side half (home-machine syscall service time, terminal
// events) as child spans, completing the cross-machine picture.
func (s *Shadow) handle(ctx context.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case proto.SyscallMsg:
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
		s.meter.Syscall(len(m.Req.Data)+len(rep.Data), elapsed)
		return proto.SyscallReplyMsg{Rep: rep}, nil
	case proto.JobDoneMsg:
		sp := trace.StartChildIfSampled(trace.FromContext(ctx), "complete")
		sp.SetJob(s.jobID)
		s.handBack()
		s.events.JobDone(m)
		sp.Finish()
		return proto.Ack{}, nil
	case proto.JobVacatedMsg:
		s.handBack()
		start := time.Now()
		s.events.JobVacated(m)
		s.meter.Support(time.Since(start)) // checkpoint ingest + requeue
		return proto.Ack{}, nil
	case proto.JobCheckpointMsg:
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
