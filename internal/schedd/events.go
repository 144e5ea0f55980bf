package schedd

import (
	"fmt"
	"time"

	"condor/internal/accounting"
	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/ru"
)

// jobEvents routes one placement's shadow events back into the station.
type jobEvents struct {
	station *Station
	jobID   string
	// epoch is the job's placement epoch when this placement began.
	epoch uint64
}

var _ ru.Events = (*jobEvents)(nil)

// JobDone implements ru.Events.
func (e *jobEvents) JobDone(msg proto.JobDoneMsg) {
	st := e.station
	st.mu.Lock()
	j, ok := st.jobs[e.jobID]
	if !ok {
		st.mu.Unlock()
		return
	}
	j.shadow = nil
	j.status.CPUSteps = msg.Steps
	if msg.Faulted {
		j.status.State = proto.JobFaulted
		j.status.FaultMsg = msg.FaultMsg
		markTransition(proto.JobFaulted)
	} else {
		j.status.State = proto.JobCompleted
		j.status.ExitCode = msg.ExitCode
		markTransition(proto.JobCompleted)
	}
	meter := j.meter
	status := st.statusLocked(j)
	st.updateQueueGaugesLocked()
	st.mu.Unlock()
	if meter != nil {
		meter.ObserveSteps(msg.Steps)
	}
	// Terminal: fold the job's accounting into its station/user totals.
	accounting.Default.Retire(e.jobID)
	// The checkpoint is no longer needed; release the disk (§4).
	_ = st.cfg.Store.Delete(e.jobID)
	if msg.Faulted {
		st.logEvent(eventlog.KindFault, e.jobID, status.ExecHost, msg.FaultMsg)
	} else {
		st.logEvent(eventlog.KindComplete, e.jobID, status.ExecHost,
			fmt.Sprintf("exit %d after %d steps", msg.ExitCode, msg.Steps))
	}
	st.notifyWaiters(e.jobID, status)
}

// JobVacated implements ru.Events: store the checkpoint and requeue. If
// the store refuses the checkpoint, the job is requeued from its last
// good one and its progress counters stay where that one left them.
func (e *jobEvents) JobVacated(msg proto.JobVacatedMsg) {
	refused := e.storeCheckpoint(msg.Checkpoint)
	st := e.station
	now := time.Now()
	st.mu.Lock()
	if j, ok := st.jobs[e.jobID]; ok {
		j.shadow = nil
		j.status.State = proto.JobIdle
		j.status.ExecHost = ""
		j.status.WaitingSince = now
		if refused == nil {
			j.status.CPUSteps = msg.Steps
			j.status.Checkpoints++
		}
		markTransition(proto.JobIdle)
		st.updateQueueGaugesLocked()
		if j.meter != nil {
			if refused == nil {
				j.meter.ObserveSteps(msg.Steps)
			} else {
				// Everything past the last good checkpoint will be redone.
				j.meter.Badput(j.meter.StepsBeyond(j.status.CPUSteps))
			}
			j.meter.StartWaiting(now) // requeued: a new idle episode begins
		}
	}
	st.mu.Unlock()
	reason := msg.Reason
	if refused != nil {
		reason += "; checkpoint refused, requeued from the last good one: " + refused.Error()
	}
	st.logEvent(eventlog.KindVacate, e.jobID, "", reason)
}

// JobCheckpointed implements ru.Events (periodic checkpoints). A refused
// checkpoint changes nothing but the refusal counter and the event log.
func (e *jobEvents) JobCheckpointed(msg proto.JobCheckpointMsg) {
	if err := e.storeCheckpoint(msg.Checkpoint); err != nil {
		e.station.logEvent(eventlog.KindCheckpoint, e.jobID, "", "periodic checkpoint refused: "+err.Error())
		return
	}
	st := e.station
	st.mu.Lock()
	if j, ok := st.jobs[e.jobID]; ok {
		j.status.CPUSteps = msg.Steps
		j.status.Checkpoints++
		if j.meter != nil {
			j.meter.ObserveSteps(msg.Steps)
		}
	}
	st.mu.Unlock()
	st.logEvent(eventlog.KindCheckpoint, e.jobID, "", "periodic")
}

// storeCheckpoint stores a blob from the execution machine under this
// placement's job, whatever job the blob names: the store refuses one
// that is corrupt or another job's, and the previous checkpoint stays.
func (e *jobEvents) storeCheckpoint(blob []byte) error {
	if _, err := e.station.cfg.Store.PutBlob(e.jobID, blob); err != nil {
		mRefusedCheckpoints.Inc()
		return err
	}
	return nil
}

// JobSuspended implements ru.Events.
func (e *jobEvents) JobSuspended(jobID string) {
	if e.graceNotice(proto.JobSuspendedState) {
		e.station.logEvent(eventlog.KindSuspend, jobID, "", "owner returned at exec site")
	}
}

// JobResumed implements ru.Events.
func (e *jobEvents) JobResumed(jobID string) {
	if e.graceNotice(proto.JobRunning) {
		e.station.logEvent(eventlog.KindResume, jobID, "", "owner left within grace")
	}
}

// graceNotice moves the job to state on a suspended/resumed notice and
// reports whether it did. The notices are one-way and each runs on its
// own goroutine, so one can land after the JobVacated, JobDone or
// JobLost that ended its placement; applied then, a stale "suspended"
// strands a requeued job outside the idle queue or un-finishes a
// finished one. A notice counts only while its own placement (epoch)
// still has the job on the execution machine — placing included, since
// the executor starts before PlaceNext's tail has run; anything else is
// dropped and counted.
func (e *jobEvents) graceNotice(state proto.JobState) bool {
	st := e.station
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[e.jobID]
	if ok && j.epoch == e.epoch {
		switch j.status.State {
		case proto.JobPlacing, proto.JobRunning, proto.JobSuspendedState:
			j.status.State = state
			markTransition(state)
			st.updateQueueGaugesLocked()
			return true
		}
	}
	mStaleEvents.Inc()
	return false
}

// JobLost implements ru.Events: the execution site died without shipping
// a checkpoint. Requeue from the last stored checkpoint — this is the
// paper's guarantee that remote failures cannot lose the job.
func (e *jobEvents) JobLost(jobID string, err error) {
	st := e.station
	now := time.Now()
	st.mu.Lock()
	if j, ok := st.jobs[jobID]; ok && !j.status.State.Terminal() {
		j.shadow = nil
		j.status.State = proto.JobIdle
		j.status.ExecHost = ""
		j.status.WaitingSince = now
		markTransition(proto.JobIdle)
		st.updateQueueGaugesLocked()
		if j.meter != nil {
			// The exec site died without a checkpoint: everything past the
			// last stored checkpoint will be redone.
			j.meter.Preempted()
			if lost := j.meter.StepsBeyond(j.status.CPUSteps); lost > 0 {
				j.meter.Badput(lost)
			}
			j.meter.StartWaiting(now)
		}
	}
	st.mu.Unlock()
	st.logEvent(eventlog.KindLost, jobID, "", err.Error())
}
