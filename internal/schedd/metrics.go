package schedd

import (
	"condor/internal/proto"
	"condor/internal/telemetry"
)

// Station telemetry (see docs/OBSERVABILITY.md). Per-station series are
// interned once when the station starts; the state table's counters are
// interned here at init so its edges only touch atomics.
var (
	mQueueDepth = telemetry.NewGaugeVec("condor_schedd_queue_jobs",
		"Jobs currently in the station's local queue (terminal jobs included until removed).",
		"station")
	mWaitingJobs = telemetry.NewGaugeVec("condor_schedd_waiting_jobs",
		"Jobs queued and idle, waiting for the coordinator to grant capacity.",
		"station")
	mRefusedCheckpoints = telemetry.NewCounter("condor_schedd_refused_checkpoints_total",
		"Checkpoints from an execution machine the store refused (corrupt, another job's, or no room); the job keeps its last good one.")

	mTransitionByState = func() (c [proto.JobRemoved + 1]*telemetry.Counter) {
		vec := telemetry.NewCounterVec("condor_schedd_job_transitions_total",
			"Job state transitions, labeled by the state entered.",
			"state")
		for s := proto.JobIdle; s <= proto.JobRemoved; s++ {
			c[s] = vec.With(s.String())
		}
		return c
	}()
	mStaleEvents = func() (c staleCounters) {
		vec := telemetry.NewCounterVec("condor_schedd_stale_job_events_total",
			"Job events the state table refused: an edge it does not list, or a placement's event after that placement stopped holding the job.",
			"event")
		for ev := range c {
			c[ev] = vec.With(jobEventNames[ev])
		}
		return c
	}()
)

// staleCounters holds one refused-event counter per jobEvent.
type staleCounters [numJobEvents]*telemetry.Counter
