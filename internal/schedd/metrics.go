package schedd

import (
	"condor/internal/proto"
	"condor/internal/telemetry"
)

// Station telemetry (see docs/OBSERVABILITY.md). Per-station series are
// interned once when the station starts; state-transition counters are
// interned here at init so the queue's mutation paths only touch
// atomics.
var (
	mQueueDepth = telemetry.NewGaugeVec("condor_schedd_queue_jobs",
		"Jobs currently in the station's local queue (terminal jobs included until removed).",
		"station")
	mWaitingJobs = telemetry.NewGaugeVec("condor_schedd_waiting_jobs",
		"Jobs queued and idle, waiting for the coordinator to grant capacity.",
		"station")
	mTransitions = telemetry.NewCounterVec("condor_schedd_job_transitions_total",
		"Job state transitions, labeled by the state entered.",
		"state")
	mStaleEvents = telemetry.NewCounter("condor_schedd_stale_job_events_total",
		"Suspended/resumed notices dropped because their placement no longer holds the job.")
	mRefusedCheckpoints = telemetry.NewCounter("condor_schedd_refused_checkpoints_total",
		"Checkpoints from an execution machine the store refused (corrupt, another job's, or no room); the job keeps its last good one.")

	mTransitionByState = map[proto.JobState]*telemetry.Counter{
		proto.JobIdle:           mTransitions.With(proto.JobIdle.String()),
		proto.JobPlacing:        mTransitions.With(proto.JobPlacing.String()),
		proto.JobRunning:        mTransitions.With(proto.JobRunning.String()),
		proto.JobSuspendedState: mTransitions.With(proto.JobSuspendedState.String()),
		proto.JobCompleted:      mTransitions.With(proto.JobCompleted.String()),
		proto.JobFaulted:        mTransitions.With(proto.JobFaulted.String()),
		proto.JobRemoved:        mTransitions.With(proto.JobRemoved.String()),
	}
)

// markTransition counts a job entering state.
func markTransition(state proto.JobState) {
	if c, ok := mTransitionByState[state]; ok {
		c.Inc()
	}
}

// updateQueueGaugesLocked refreshes the station's queue-depth gauges
// from the current job table. Callers hold st.mu (or are still
// single-threaded in New).
func (st *Station) updateQueueGaugesLocked() {
	total, idle := 0, 0
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			total++
			if j.status.State == proto.JobIdle {
				idle++
			}
		}
	}
	st.gQueue.Set(int64(total))
	st.gWaiting.Set(int64(idle))
}
