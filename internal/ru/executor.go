package ru

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"condor/internal/accounting"
	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

type ctlKind int

const (
	ctlSuspend ctlKind = iota + 1
	ctlResume
	ctlVacate
	ctlKill
)

type ctl struct {
	kind   ctlKind
	reason string
	// at is when the scan loop posted the command; the executor observes
	// the post-to-reaction delay as preemption latency.
	at time.Time
}

// execution is one foreign job resident on a starter.
type execution struct {
	starter *Starter
	jobID   string
	owner   string
	home    string
	peer    *wire.Peer
	vm      *cvm.VM
	meta    ckpt.Meta
	// lastCkpt is the most recent checkpoint blob (the placement image
	// initially, updated by periodic checkpoints). Under the
	// kill-immediately policy this is what gets shipped back.
	lastCkpt      []byte
	lastCkptSteps uint64
	// meter charges remote CPU, checkpoint overhead, and badput to the
	// job. The executor is the sole writer of those fields; step totals
	// are reconciled CAS-max so the home side may observe them too.
	meter *accounting.Meter
	ctl   chan ctl
	// span covers the whole residency of the job on this machine; it is
	// finished on every exit path of run (complete, fault, vacate, kill,
	// connection loss). traceCtx is its propagable identity, the parent
	// of every syscall/checkpoint/vacate span this execution records.
	span     trace.ActiveSpan
	traceCtx trace.SpanContext
}

// post delivers a control message without ever blocking the scan loop; a
// full channel means the executor is already draining a burst of
// commands and the scan will re-evaluate next tick.
func (e *execution) post(c ctl) {
	c.at = time.Now()
	select {
	case e.ctl <- c:
	default:
	}
}

// abort hard-stops the execution (starter shutdown). The shadow observes
// the connection loss and reschedules.
func (e *execution) abort() {
	e.peer.Close()
}

// run is the executor loop: interleave VM slices with control handling.
func (e *execution) run() {
	defer e.starter.clear(e)
	defer e.span.Finish()
	cfg := e.starter.cfg
	suspended := false
	lastPeriodic := time.Now()
	for {
		// Drain control. While suspended, block until something changes;
		// while running, just poll.
		for {
			var c ctl
			if suspended {
				select {
				case c = <-e.ctl:
				case <-e.abortedOrPeerDone():
					return
				}
			} else {
				select {
				case c = <-e.ctl:
				case <-e.peer.Done():
					// Shadow hung up: stop burning cycles on an orphan.
					return
				default:
				}
			}
			if c.kind == 0 {
				break
			}
			if !c.at.IsZero() {
				mPreemptLatency.ObserveDuration(time.Since(c.at))
			}
			switch c.kind {
			case ctlSuspend:
				if !suspended {
					suspended = true
					_ = e.peer.Notify(proto.JobSuspendedMsg{JobID: e.jobID})
				}
			case ctlResume:
				if suspended {
					suspended = false
					_ = e.peer.Notify(proto.JobResumedMsg{JobID: e.jobID})
				}
			case ctlVacate:
				e.vacate(c.reason)
				return
			case ctlKill:
				e.killWithLastCheckpoint(c.reason)
				return
			}
			if suspended {
				continue // keep blocking on ctl
			}
			break
		}
		if suspended {
			continue
		}

		sliceStart := time.Now()
		status, err := e.vm.Run(cfg.StepsPerSlice)
		e.meter.ExecTime(time.Since(sliceStart))
		e.meter.ObserveSteps(e.vm.Steps())
		if err != nil {
			var fault *cvm.FaultError
			if errors.As(err, &fault) {
				e.starter.bump(func(s *StarterStats) { s.Faulted++ })
				e.starter.clear(e)
				e.finish(proto.JobDoneMsg{
					JobID:    e.jobID,
					Faulted:  true,
					FaultMsg: fault.Error(),
					Steps:    e.vm.Steps(),
					Syscalls: e.vm.Syscalls(),
				})
				return
			}
			// Host error: the shadow connection broke. Nothing to report
			// to anyone; the shadow's JobLost path owns recovery.
			e.peer.Close()
			return
		}
		if status == cvm.StatusHalted {
			e.starter.bump(func(s *StarterStats) { s.Completed++ })
			e.starter.clear(e)
			e.finish(proto.JobDoneMsg{
				JobID:    e.jobID,
				ExitCode: e.vm.ExitCode(),
				Steps:    e.vm.Steps(),
				Syscalls: e.vm.Syscalls(),
			})
			return
		}

		if cfg.PeriodicCheckpoint > 0 && time.Since(lastPeriodic) >= cfg.PeriodicCheckpoint {
			lastPeriodic = time.Now()
			cp := trace.StartChildIfSampled(e.traceCtx, "checkpoint")
			cp.SetJob(e.jobID)
			cp.SetAttr("periodic", "true")
			ckptStart := time.Now()
			if blob, err := e.snapshotBlob(); err == nil {
				e.lastCkpt = blob
				e.lastCkptSteps = e.vm.Steps()
				_ = e.peer.NotifyCtx(trace.ContextWith(context.Background(), cp.Context()),
					proto.JobCheckpointMsg{
						JobID:      e.jobID,
						Checkpoint: blob,
						Steps:      e.vm.Steps(),
					})
				e.meter.Checkpoint(len(blob), time.Since(ckptStart))
				e.starter.bump(func(s *StarterStats) { s.PeriodicCkpts++ })
			} else {
				cp.SetError(err)
			}
			cp.Finish()
		}
		if cfg.SliceDelay > 0 {
			// A shadow that hangs up (or a closing starter, which aborts the
			// connection) ends the pause at once: sleeping it out would
			// keep the machine claimed and the job's memory reachable.
			pause := time.NewTimer(cfg.SliceDelay)
			select {
			case <-pause.C:
			case <-e.peer.Done():
				pause.Stop()
				return
			}
		}
	}
}

// abortedOrPeerDone lets a suspended executor notice a dead connection.
func (e *execution) abortedOrPeerDone() <-chan struct{} {
	return e.peer.Done()
}

func (e *execution) snapshotBlob() ([]byte, error) {
	img := e.vm.Snapshot()
	meta := e.meta
	meta.Sequence++
	meta.CPUSteps = e.vm.Steps()
	e.meta = meta
	return ckpt.EncodeBytesWith(meta, img, ckpt.Options{Compress: true})
}

// vacate checkpoints the job and ships it to the shadow.
func (e *execution) vacate(reason string) {
	cp := trace.StartChildIfSampled(e.traceCtx, "checkpoint")
	cp.SetJob(e.jobID)
	ckptStart := time.Now()
	blob, err := e.snapshotBlob()
	if err != nil {
		// Encoding can only fail on an invalid image; fall back to the
		// last good checkpoint rather than losing the job.
		cp.SetError(err)
		blob = e.lastCkpt
		// Resuming from the stale checkpoint redoes everything since it.
		e.meter.Badput(e.meter.StepsBeyond(e.lastCkptSteps))
	} else {
		e.meter.Checkpoint(len(blob), time.Since(ckptStart))
	}
	cp.Finish()
	e.meter.Preempted()
	e.starter.bump(func(s *StarterStats) { s.Vacated++ })
	e.starter.clear(e)
	sp := trace.StartChildIfSampled(e.traceCtx, "vacate")
	sp.SetJob(e.jobID)
	sp.SetAttr("reason", reason)
	e.ship(sp.Context(), proto.JobVacatedMsg{
		JobID:      e.jobID,
		Checkpoint: blob,
		Reason:     reason,
		Steps:      e.vm.Steps(),
	})
	sp.Finish()
}

// killWithLastCheckpoint implements the §4 kill-immediately policy: no
// fresh checkpoint is taken; work since the last one is lost.
func (e *execution) killWithLastCheckpoint(reason string) {
	// Badput: everything executed past the checkpoint being shipped back
	// will be redone when the job resumes elsewhere.
	e.meter.ObserveSteps(e.vm.Steps())
	e.meter.Badput(e.meter.StepsBeyond(e.lastCkptSteps))
	e.meter.Preempted()
	e.starter.bump(func(s *StarterStats) { s.Vacated++ })
	e.starter.clear(e)
	sp := trace.StartChildIfSampled(e.traceCtx, "vacate")
	sp.SetJob(e.jobID)
	sp.SetAttr("reason", reason)
	sp.SetAttr("killed", "true")
	e.ship(sp.Context(), proto.JobVacatedMsg{
		JobID:      e.jobID,
		Checkpoint: e.lastCkpt,
		Reason:     fmt.Sprintf("%s (killed; resuming from last checkpoint)", reason),
		Steps:      e.lastCkptSteps,
	})
	sp.Finish()
}

func (e *execution) ship(sc trace.SpanContext, msg proto.JobVacatedMsg) {
	ctx, cancel := context.WithTimeout(context.Background(), e.starter.cfg.SyscallTimeout)
	defer cancel()
	if !sc.Valid() {
		sc = e.traceCtx
	}
	e.terminal(trace.ContextWith(ctx, sc), msg)
}

func (e *execution) finish(msg proto.JobDoneMsg) {
	ctx, cancel := context.WithTimeout(context.Background(), e.starter.cfg.SyscallTimeout)
	defer cancel()
	// Carry the exec span so the shadow's terminal "complete" span hangs
	// off it in the tree.
	e.terminal(trace.ContextWith(ctx, e.traceCtx), msg)
}

// terminal sends the job's last message. Once the shadow acknowledges it
// the connection is the home station's link again, free for its next
// placement here; only a failed hand-off closes it.
func (e *execution) terminal(ctx context.Context, msg any) {
	if _, err := e.peer.Call(ctx, msg); err != nil {
		e.peer.Close()
	}
}

// remoteHandler forwards guest system calls to the shadow.
type remoteHandler struct {
	peer    *wire.Peer
	jobID   string
	timeout time.Duration
	// parent/n drive head-based syscall sampling: within a traced
	// execution the first forwarded syscall is always recorded, then
	// every syscallTraceEvery-th. The sampled-out path costs one atomic
	// add and a branch.
	parent trace.SpanContext
	n      atomic.Uint64
}

// syscallTraceEvery downsamples per-syscall tracing. Rare lifecycle
// events (place, checkpoint, vacate, complete) are never downsampled.
const syscallTraceEvery = 64

var _ cvm.SyscallHandler = (*remoteHandler)(nil)

// Syscall implements cvm.SyscallHandler by shipping the request over the
// placement connection and waiting for the shadow's reply.
func (h *remoteHandler) Syscall(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	sp := trace.StartNth(h.parent, "syscall", h.n.Add(1), syscallTraceEvery)
	sp.SetJob(h.jobID)
	if sp.Recording() {
		// Only sampled syscalls carry trace context to the shadow, so
		// the home machine records exactly the matching child spans.
		ctx = trace.ContextWith(ctx, sp.Context())
	}
	start := time.Now()
	reply, err := h.peer.Call(ctx, proto.SyscallMsg{JobID: h.jobID, Req: req})
	if err != nil {
		sp.SetError(err)
		sp.Finish()
		mSyscallErrors.Inc()
		return cvm.SyscallReply{}, fmt.Errorf("ru: syscall forward: %w", err)
	}
	rtt := time.Since(start)
	if sp.Recording() {
		// Exemplar: pin the latest traced syscall to the RTT histogram
		// so operators can jump from the aggregate to one real trace.
		mSyscallRTT.ObserveDurationExemplar(rtt, sp.Context().Traceparent())
	} else {
		mSyscallRTT.ObserveDuration(rtt)
	}
	sp.Finish()
	rep, ok := reply.(proto.SyscallReplyMsg)
	if !ok {
		return cvm.SyscallReply{}, fmt.Errorf("ru: unexpected syscall reply %T", reply)
	}
	return rep.Rep, nil
}
