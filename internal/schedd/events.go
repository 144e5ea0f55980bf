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
// Each notice runs on its own goroutine, so one can land after another
// that ended its placement; the placement's epoch makes the state table
// refuse it.
type jobEvents struct {
	station *Station
	jobID   string
	// epoch is the job's placement epoch when this placement began.
	epoch uint64
}

var _ ru.Events = (*jobEvents)(nil)

// stepLocked takes ev's edge for this placement's job, booking the
// placement if this is its first proof, and returns the job, or nil when
// the table refused it. Callers hold st.mu.
func (e *jobEvents) stepLocked(ev jobEvent) *job {
	j, ok := e.station.jobs[e.jobID]
	if !ok || !e.station.stepLocked(j, ev, e.epoch) {
		return nil
	}
	e.station.placedLocked(j, e.epoch)
	return j
}

// JobDone implements ru.Events.
func (e *jobEvents) JobDone(msg proto.JobDoneMsg) {
	ev := evDone
	if msg.Faulted {
		ev = evFaulted
	}
	st := e.station
	st.mu.Lock()
	j := e.stepLocked(ev)
	if j == nil {
		st.mu.Unlock()
		return
	}
	j.shadow = nil
	j.status.CPUSteps = msg.Steps
	if msg.Faulted {
		j.status.FaultMsg = msg.FaultMsg
	} else {
		j.status.ExitCode = msg.ExitCode
	}
	execHost := j.status.ExecHost
	st.mu.Unlock()
	j.meter.ObserveSteps(msg.Steps)
	// Terminal: fold the job's accounting into its station/user totals.
	accounting.Default.Retire(e.jobID)
	// The checkpoint is no longer needed; release the disk (§4).
	_ = st.cfg.Store.Delete(e.jobID)
	if msg.Faulted {
		st.logEvent(eventlog.KindFault, j, execHost, msg.FaultMsg)
	} else {
		st.logEvent(eventlog.KindComplete, j, execHost,
			fmt.Sprintf("exit %d after %d steps", msg.ExitCode, msg.Steps))
	}
	close(j.finished)
}

// JobVacated implements ru.Events: store the checkpoint and requeue. If
// the store refuses the checkpoint, the job is requeued from its last
// good one and its progress counters stay where that one left them.
func (e *jobEvents) JobVacated(msg proto.JobVacatedMsg) {
	refused := e.storeCheckpoint(msg.Checkpoint)
	st := e.station
	now := time.Now()
	st.mu.Lock()
	j := e.stepLocked(evVacated)
	if j == nil {
		st.mu.Unlock()
		e.dropLateCheckpoint()
		return
	}
	j.shadow = nil
	j.status.ExecHost = ""
	j.status.WaitingSince = now
	if refused == nil {
		j.status.CPUSteps = msg.Steps
		j.status.Checkpoints++
		j.meter.ObserveSteps(msg.Steps)
	} else {
		// Everything past the last good checkpoint will be redone.
		j.meter.Badput(j.meter.StepsBeyond(j.status.CPUSteps))
	}
	j.meter.StartWaiting(now) // requeued: a new idle episode begins
	st.mu.Unlock()
	reason := msg.Reason
	if refused != nil {
		reason += "; checkpoint refused, requeued from the last good one: " + refused.Error()
	}
	st.logEvent(eventlog.KindVacate, j, "", reason)
}

// JobCheckpointed implements ru.Events (periodic checkpoints). A refused
// checkpoint changes nothing but the refusal counter and the event log.
func (e *jobEvents) JobCheckpointed(msg proto.JobCheckpointMsg) {
	refused := e.storeCheckpoint(msg.Checkpoint)
	st := e.station
	st.mu.Lock()
	j := e.stepLocked(evCheckpointed)
	if j == nil {
		st.mu.Unlock()
		e.dropLateCheckpoint()
		return
	}
	detail := "periodic"
	if refused == nil {
		j.status.CPUSteps = msg.Steps
		j.status.Checkpoints++
		j.meter.ObserveSteps(msg.Steps)
	} else {
		detail = "periodic checkpoint refused: " + refused.Error()
	}
	st.mu.Unlock()
	st.logEvent(eventlog.KindCheckpoint, j, "", detail)
}

// storeCheckpoint stores a blob from the execution machine under this
// placement's job, whatever job the blob names: the store refuses one
// that is corrupt or another job's, and the previous checkpoint stays.
// It runs before the event's edge, outside st.mu.
func (e *jobEvents) storeCheckpoint(blob []byte) error {
	if _, err := e.station.cfg.Store.PutBlob(e.jobID, blob); err != nil {
		mRefusedCheckpoints.Inc()
		return err
	}
	return nil
}

// dropLateCheckpoint deletes the blob stored for an event the table then
// refused, if the job has finished: no newer generation will replace it,
// and nothing else would release its disk.
func (e *jobEvents) dropLateCheckpoint() {
	st := e.station
	st.mu.Lock()
	j, ok := st.jobs[e.jobID]
	finished := ok && j.status.State.Terminal()
	st.mu.Unlock()
	if finished {
		_ = st.cfg.Store.Delete(e.jobID)
	}
}

// JobSuspended implements ru.Events.
func (e *jobEvents) JobSuspended(string) {
	e.notice(evSuspended, eventlog.KindSuspend, "owner returned at exec site")
}

// JobResumed implements ru.Events.
func (e *jobEvents) JobResumed(string) {
	e.notice(evResumed, eventlog.KindResume, "owner left within grace")
}

// notice takes a grace-period notice's edge and logs it.
func (e *jobEvents) notice(ev jobEvent, kind eventlog.Kind, detail string) {
	e.station.mu.Lock()
	j := e.stepLocked(ev)
	e.station.mu.Unlock()
	if j != nil {
		e.station.logEvent(kind, j, "", detail)
	}
}

// JobLost implements ru.Events: the execution site died without shipping
// a checkpoint. Requeue from the last stored checkpoint — this is the
// paper's guarantee that remote failures cannot lose the job.
func (e *jobEvents) JobLost(_ string, err error) {
	st := e.station
	now := time.Now()
	st.mu.Lock()
	j := e.stepLocked(evLost)
	if j == nil {
		st.mu.Unlock()
		return
	}
	j.shadow = nil
	j.status.ExecHost = ""
	j.status.WaitingSince = now
	// The exec site died without a checkpoint: everything past the last
	// stored checkpoint will be redone.
	j.meter.Preempted()
	j.meter.Badput(j.meter.StepsBeyond(j.status.CPUSteps))
	j.meter.StartWaiting(now)
	st.mu.Unlock()
	st.logEvent(eventlog.KindLost, j, "", err.Error())
}
