package schedd

import (
	"condor/internal/accounting"
	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/trace"
)

// job is one queue entry. Its state changes only in stepLocked.
type job struct {
	status proto.JobStatus
	host   cvm.SyscallHandler
	shadow *ru.Shadow
	// meter is the job's accounting meter (interned in accounting.Default
	// at submit/recover time; retired when the job reaches a terminal
	// state).
	meter *accounting.Meter
	// epoch counts the job's placements; each placement's jobEvents
	// carries the value it started under, which is how a notice from an
	// earlier placement is told from a current one.
	epoch uint64
	// placedEpoch is the newest epoch whose placement is booked (see
	// placedLocked); placements start at epoch 1.
	placedEpoch uint64
	// traceCtx is the job's trace anchor: the submit span's context (or
	// the recover span's after a restart). Every later span of this job
	// — place, exec, syscalls, vacate, complete — descends from it, and
	// its trace ID stitches eventlog entries to its spans.
	traceCtx trace.SpanContext
	// finished is closed by whoever took the job's terminal edge, once
	// its bookkeeping is done; Wait blocks on it.
	finished chan struct{}
}

// jobEvent is an input to the job state machine. A placement's events
// (placed, place-failed and the shadow's) carry the epoch it started
// under; submit, recover, place and remove act on the job's current one.
type jobEvent uint8

const (
	evSubmit jobEvent = iota
	evRecover
	evPlace       // PlaceNext claims the job: the only edge that bumps epoch
	evPlaced      // the execution machine accepted the placement
	evPlaceFailed // the checkpoint was unreadable or the handshake failed
	evSuspended
	evResumed
	evCheckpointed
	evVacated
	evDone
	evFaulted
	evLost
	evRemove
	numJobEvents
)

var jobEventNames = [numJobEvents]string{
	"submit", "recover", "place", "placed", "place-failed", "suspended",
	"resumed", "checkpointed", "vacated", "done", "faulted", "lost", "remove",
}

// edges is the job state machine: edges[state][event] is the state the
// event moves a job to, and zero means the table refuses the event there.
// State zero is a job not yet queued. The three states a placement holds
// differ only in their first line: the shadow's events race PlaceNext's
// tail, so a placing job takes them too, and a late placed leaves a job
// that moved on where it is. Terminal states take nothing else.
var edges = [proto.JobRemoved + 1][numJobEvents]proto.JobState{
	0:             {evSubmit: proto.JobIdle, evRecover: proto.JobIdle},
	proto.JobIdle: {evPlace: proto.JobPlacing, evPlaced: proto.JobIdle, evRemove: proto.JobRemoved},
	proto.JobPlacing: {evPlaced: proto.JobRunning, evCheckpointed: proto.JobPlacing,
		evSuspended: proto.JobSuspendedState, evResumed: proto.JobRunning, evDone: proto.JobCompleted, evFaulted: proto.JobFaulted,
		evVacated: proto.JobIdle, evLost: proto.JobIdle, evPlaceFailed: proto.JobIdle, evRemove: proto.JobRemoved},
	proto.JobRunning: {evPlaced: proto.JobRunning, evCheckpointed: proto.JobRunning,
		evSuspended: proto.JobSuspendedState, evResumed: proto.JobRunning, evDone: proto.JobCompleted, evFaulted: proto.JobFaulted,
		evVacated: proto.JobIdle, evLost: proto.JobIdle, evPlaceFailed: proto.JobIdle, evRemove: proto.JobRemoved},
	proto.JobSuspendedState: {evPlaced: proto.JobSuspendedState, evCheckpointed: proto.JobSuspendedState,
		evSuspended: proto.JobSuspendedState, evResumed: proto.JobRunning, evDone: proto.JobCompleted, evFaulted: proto.JobFaulted,
		evVacated: proto.JobIdle, evLost: proto.JobIdle, evPlaceFailed: proto.JobIdle, evRemove: proto.JobRemoved},
	proto.JobCompleted: {evPlaced: proto.JobCompleted},
	proto.JobFaulted:   {evPlaced: proto.JobFaulted},
}

// stepLocked is the only writer of a job's state. It takes the table's
// edge for ev if the event belongs to the job's current placement (epoch)
// and reports whether it did; a refused event changes nothing and is
// counted stale. Callers hold st.mu (or are still single-threaded in
// New) and do the event's own bookkeeping only when the edge was taken.
func (st *Station) stepLocked(j *job, ev jobEvent, epoch uint64) bool {
	from := j.status.State
	to := edges[from][ev]
	if to == 0 || epoch != j.epoch {
		mStaleEvents[ev].Inc()
		return false
	}
	if ev == evPlace {
		j.epoch++
	}
	if to == from {
		return true
	}
	j.status.State = to
	mTransitionByState[to].Inc()
	if from == proto.JobIdle {
		st.waiting--
	}
	if to == proto.JobIdle {
		st.waiting++
	}
	st.gQueue.Set(int64(len(st.order)))
	st.gWaiting.Set(int64(st.waiting))
	return true
}
