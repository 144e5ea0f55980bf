// Package proto defines the messages and shared vocabulary spoken by the
// Condor daemons: coordinator ↔ station (poll/grant/preempt), client ↔
// station (submit/queue), and shadow ↔ starter (place/syscall/vacate —
// the Remote Unix protocol).
//
// Every message type is a wire.Message with a hand-written body (see
// codec.go), registered with internal/wire so it can travel inside a
// wire.Envelope. Checkpoints travel as opaque ckpt-format blobs
// (see internal/ckpt), never as live structures: a fresh job placement is
// just a restore from a sequence-zero checkpoint, which is why placing
// and checkpointing cost the same 5 s/MB in the paper's measurements.
package proto

import (
	"fmt"
	"time"

	"condor/internal/accounting"
	"condor/internal/cvm"
	"condor/internal/decision"
	"condor/internal/eventlog"
	"condor/internal/trace"
)

// StationState is a workstation's scheduling state as seen by its local
// scheduler and reported to the coordinator.
type StationState int

// Station states.
const (
	// StationOwner: the owner is active; no foreign work may run.
	StationOwner StationState = iota + 1
	// StationIdle: no owner activity; available as a cycle source.
	StationIdle
	// StationClaimed: a foreign background job is executing here.
	StationClaimed
	// StationSuspended: the owner returned; the foreign job is stopped
	// but kept in memory for the grace period (§4).
	StationSuspended
)

// String returns a short state name.
func (s StationState) String() string {
	switch s {
	case StationOwner:
		return "owner"
	case StationIdle:
		return "idle"
	case StationClaimed:
		return "claimed"
	case StationSuspended:
		return "suspended"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// StationHealth is the coordinator's graded confidence in a station:
// not whether the machine is idle or busy (that is StationState), but
// whether the coordinator believes what the machine says and is willing
// to route work through it. Healthy stations participate fully; suspect
// stations keep their running jobs but receive no new grants;
// quarantined stations are contacted only by backoff-spaced probes until
// they earn readmission; dead stations are unregistered.
type StationHealth int

// Station health states.
const (
	// HealthHealthy: polls answer promptly and plausibly.
	HealthHealthy StationHealth = iota + 1
	// HealthSuspect: elevated suspicion (missed or slow polls). No new
	// grants, but running jobs continue and polling stays per-cycle.
	HealthSuspect
	// HealthQuarantined: high suspicion, flapping, or a byzantine reply.
	// Excluded from allocation entirely; probed with jittered exponential
	// backoff until enough consecutive probes succeed.
	HealthQuarantined
	// HealthDead: the station exhausted its failure budget and was
	// unregistered.
	HealthDead
)

// String returns a short health-state name.
func (h StationHealth) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	case HealthDead:
		return "dead"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// JobState is a background job's lifecycle state in its home queue.
type JobState int

// Job states.
const (
	// JobIdle: queued, waiting for capacity.
	JobIdle JobState = iota + 1
	// JobPlacing: being transferred to an execution site.
	JobPlacing
	// JobRunning: executing remotely.
	JobRunning
	// JobSuspendedState: stopped at the execution site, grace period.
	JobSuspendedState
	// JobCompleted: finished successfully.
	JobCompleted
	// JobFaulted: the program faulted; it will not be rescheduled.
	JobFaulted
	// JobRemoved: removed by its owner.
	JobRemoved
)

// String returns a short state name.
func (s JobState) String() string {
	switch s {
	case JobIdle:
		return "idle"
	case JobPlacing:
		return "placing"
	case JobRunning:
		return "running"
	case JobSuspendedState:
		return "suspended"
	case JobCompleted:
		return "completed"
	case JobFaulted:
		return "faulted"
	case JobRemoved:
		return "removed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobCompleted || s == JobFaulted || s == JobRemoved
}

// JobStatus describes one queued job.
type JobStatus struct {
	ID          string    `json:"id"`
	Owner       string    `json:"owner"`
	Program     string    `json:"program"`
	State       JobState  `json:"state"`
	SubmittedAt time.Time `json:"submittedAt"`
	// CPUSteps is guest CPU consumed so far (from the latest checkpoint
	// or completion).
	CPUSteps uint64 `json:"cpuSteps"`
	// ExecHost is the current or last execution site.
	ExecHost string `json:"execHost"`
	// Checkpoints is how many times the job has been checkpointed.
	Checkpoints int `json:"checkpoints"`
	// Placements is how many times the job has been placed on a machine.
	Placements int `json:"placements"`
	// Priority is the job's local queue priority (higher first).
	Priority int    `json:"priority"`
	ExitCode int64  `json:"exitCode"`
	FaultMsg string `json:"faultMsg,omitempty"`
	Stdout   string `json:"stdout,omitempty"`
	// WaitingSince is when the job's current idle episode began (submit
	// or requeue after a vacate/loss); zero when not waiting. condor-q
	// renders it as the job's queue-wait age.
	WaitingSince time.Time `json:"waitingSince,omitempty"`
}

// StationInfo is one row of the coordinator's pool table.
type StationInfo struct {
	Name  string       `json:"name"`
	Addr  string       `json:"addr"`
	State StationState `json:"state"`
	// WaitingJobs is how many background jobs the station has queued.
	WaitingJobs int `json:"waitingJobs"`
	// RunningJobs is how many of the station's own jobs run remotely.
	RunningJobs int `json:"runningJobs"`
	// ForeignJob is the job id executing on this station, if claimed.
	ForeignJob string `json:"foreignJob,omitempty"`
	// ScheduleIndex is the station's Up-Down priority index.
	ScheduleIndex float64 `json:"scheduleIndex"`
	// IndexHistory is the station's recent schedule-index trajectory,
	// oldest first (bounded; empty from coordinators predating it).
	IndexHistory []float64 `json:"indexHistory,omitempty"`
	// LastPoll is when the coordinator last heard from the station.
	LastPoll time.Time `json:"lastPoll"`
	// DiskFreeBytes is free checkpoint-store space on the station.
	DiskFreeBytes int64 `json:"diskFreeBytes"`
	// ReservedFor names the station holding a §5.3 reservation on this
	// machine, if any.
	ReservedFor string `json:"reservedFor,omitempty"`
	// ReservedUntil is the reservation expiry.
	ReservedUntil time.Time `json:"reservedUntil,omitempty"`
	// Health is the coordinator's graded confidence in the station
	// (zero from coordinators predating graded health).
	Health StationHealth `json:"health,omitempty"`
	// HealthSince is when the station entered its current health state.
	HealthSince time.Time `json:"healthSince,omitempty"`
	// HealthReason explains a non-healthy state: timeout, slow,
	// byzantine, or flap (with detail).
	HealthReason string `json:"healthReason,omitempty"`
	// Suspicion is the station's current phi-accrual-style suspicion
	// score in [0,1]; the suspect/quarantine thresholds cut it.
	Suspicion float64 `json:"suspicion,omitempty"`
}

// --- client ↔ station ------------------------------------------------

// SubmitRequest submits a program to a station's background queue.
type SubmitRequest struct {
	Owner string
	// Source is cvm assembler source; the station assembles it.
	Source string
	// Name names the program (used for text sharing and display).
	Name string
	// ProgramBlob is an alternative to Source: an EncodeProgram blob.
	ProgramBlob []byte
	// StackWords optionally overrides the default stack size.
	StackWords int
	// Priority orders the job within its home queue (higher runs first;
	// the local scheduler's own decision, §2.1). Ties break FIFO.
	Priority int
}

// SubmitReply acknowledges a submission.
type SubmitReply struct {
	JobID string
}

// QueueRequest asks a station for its queue contents.
type QueueRequest struct{}

// QueueReply lists the station's jobs.
type QueueReply struct {
	Station string
	Jobs    []JobStatus
}

// RemoveRequest removes a job from the queue (and vacates it if running).
type RemoveRequest struct {
	JobID string
}

// RemoveReply acknowledges a removal.
type RemoveReply struct {
	Removed bool
}

// WaitRequest blocks until the job reaches a terminal state (or the
// server's patience runs out; Found reports whether the job exists).
type WaitRequest struct {
	JobID string
}

// WaitReply carries the terminal status.
type WaitReply struct {
	Found  bool
	Status JobStatus
}

// --- coordinator ↔ station -------------------------------------------

// RegisterRequest announces a station to the coordinator.
type RegisterRequest struct {
	Name string
	Addr string
}

// RegisterReply acknowledges registration.
type RegisterReply struct {
	OK bool
	// PollIntervalMillis tells the station how often it will be polled;
	// its registrar re-registers after three intervals without a poll.
	PollIntervalMillis int64
}

// PollRequest is the coordinator's 2-minute heartbeat to a station.
type PollRequest struct{}

// PollReply is the station's state report.
type PollReply struct {
	Name  string
	State StationState
	// WaitingJobs counts queued jobs wanting remote capacity.
	WaitingJobs int
	// ForeignJob is the id of the foreign job running here, if any.
	ForeignJob string
	// ForeignOwnerStation is the home station of that job.
	ForeignOwnerStation string
	// DiskFreeBytes is free checkpoint-store space (§4: a full disk makes
	// the station unusable as an execution site).
	DiskFreeBytes int64
	// IdleStreakMillis is how long the station has currently been idle.
	IdleStreakMillis int64
	// AvgIdleMillis is the station's historic mean idle-interval length,
	// feeding the §5.1 availability-history placement strategy.
	AvgIdleMillis int64
}

// GrantRequest awards the station capacity on an idle machine. The
// station decides which of its queued jobs to run there (§2.1: "A local
// scheduler with more than one background job waiting makes its own
// decision of which job should be executed next").
type GrantRequest struct {
	ExecName string
	ExecAddr string
	// ReplyWithinMillis is how long the coordinator waits for the reply.
	// The station bounds the placement the grant starts so that it
	// answers in time, declining the grant if the execution machine has
	// not taken the job by then: a grant that gets no reply counts
	// against the station, so it must not be lost waiting on another
	// machine. Zero sets no bound beyond the placement's own.
	ReplyWithinMillis int64
}

// GrantReply reports whether the grant was used.
type GrantReply struct {
	Used  bool
	JobID string
	// Reason explains an unused grant (no jobs left, pacing, disk, ...).
	Reason string
	// Trace is the placed job's root span context (a W3C traceparent)
	// when the grant was used, letting the coordinator record its grant
	// span into the job's trace. Empty from stations predating tracing.
	Trace string
}

// PreemptRequest tells the execution station to vacate the foreign job it
// is running (Up-Down priority inversion or administrative action).
type PreemptRequest struct {
	JobID  string
	Reason string
}

// PreemptReply acknowledges the vacate has begun.
type PreemptReply struct {
	Vacating bool
}

// ReserveRequest reserves an execution machine for a station's exclusive
// use until the given time — the §5.3 reservation system, used to
// "guarantee computing capacity for users in advance in order to conduct
// experiments in distributed computations". The workstation's owner
// still preempts everything; a reservation only arbitrates among remote
// users.
type ReserveRequest struct {
	// Station is the machine being reserved.
	Station string
	// Holder is the station whose jobs may use it.
	Holder string
	// DurationMillis bounds the reservation from now.
	DurationMillis int64
}

// ReserveReply reports the reservation outcome.
type ReserveReply struct {
	OK bool
	// Reason explains a refusal (unknown station, already reserved, ...).
	Reason string
	// UntilUnixMillis is the reservation expiry.
	UntilUnixMillis int64
}

// CancelReservationRequest releases a reservation.
type CancelReservationRequest struct {
	Station string
}

// CancelReservationReply acknowledges the cancellation.
type CancelReservationReply struct {
	Cancelled bool
}

// HistoryRequest asks a daemon for its recent event log. JobID filters
// to one job's trail; TraceID filters to events stitched to one trace
// (32 hex chars, see internal/trace); Limit caps the number of events
// (0 = all retained).
type HistoryRequest struct {
	JobID   string
	Limit   int
	TraceID string
}

// HistoryReply carries the events, oldest first.
type HistoryReply struct {
	Events []eventlog.Event
}

// PoolStatusRequest asks the coordinator for the pool table.
type PoolStatusRequest struct{}

// AccountingRequest asks a daemon for its live accounting ledgers — the
// paper's §5 quantities measured on the running system. Both the
// coordinator and the stations answer it.
type AccountingRequest struct{}

// AccountingReply carries the ledger views. Process is the answering
// daemon's process-wide job/station/user ledger (empty sections when the
// daemon runs no jobs); Coordinator is the allocation/capacity ledger
// and is only populated by coordinators.
type AccountingReply struct {
	Process     accounting.View
	Coordinator accounting.View
	// HasCoordinator distinguishes "not a coordinator" from an empty
	// coordinator ledger.
	HasCoordinator bool
}

// DecisionsRequest asks the coordinator for its scheduling decision
// audits — the per-cycle record of why each machine was filtered,
// ranked, granted, or preempted. Filters compose (see decision.Filter):
// Job keeps cycles naming the job ID in a grant/preempt; Station keeps
// cycles mentioning the station in any role; Cycle selects one cycle
// (>0 exact number, <0 from the newest, 0 all); Last keeps the newest N.
type DecisionsRequest struct {
	Job     string
	Station string
	Cycle   int64
	Last    int
}

// DecisionsReply carries the matching cycle audits plus the recorder's
// lifetime totals (Dropped > 0 means the ring wrapped and older cycles
// are gone).
type DecisionsReply struct {
	decision.Page
}

// TracesRequest asks a daemon for the spans its process recorded
// (trace.Default). TraceID keeps one trace (32 hex chars); JobID keeps
// every trace holding a span tagged with that job (see trace.PageFor).
// Both empty returns every retained span.
type TracesRequest struct {
	TraceID string
	JobID   string
}

// TracesReply carries the matching spans plus the recorder's lifetime
// totals.
type TracesReply struct {
	trace.Page
}

// WireStats reports the coordinator's pooled-connection activity:
// how often station RPCs rode a cached connection versus paying a
// fresh dial, plus reconnects after station restarts, idle evictions,
// and retried attempts.
type WireStats struct {
	Dials      uint64
	Reuses     uint64
	Reconnects uint64
	Evictions  uint64
	Retries    uint64
}

// JournalStats reports the coordinator's durable-state journal activity
// (all zero when the coordinator runs without a state directory).
type JournalStats struct {
	// Appends counts whole-state writes this incarnation.
	Appends uint64
	// LogBytes is the size of the newest saved state.
	LogBytes int64
	// Errors counts failed state writes, an unreadable state and
	// log-era files found at startup (state kept serving, durability
	// degraded).
	Errors uint64
}

// CoordinatorInfo describes the coordinator daemon itself: its restart
// lineage and recovery state, so operators can see at a glance that a
// crash happened and what was restored.
type CoordinatorInfo struct {
	// PolicyName is the active scheduling policy (registry name, e.g.
	// "updown").
	PolicyName string
	// Incarnation is how many times this coordinator's state directory
	// has been opened (0 = running without durable state).
	Incarnation uint64
	// StartedUnixMillis is when this incarnation came up.
	StartedUnixMillis int64
	// Cycles is how many allocation cycles this incarnation has run.
	Cycles uint64
	// Grants, GrantsUsed, GrantsDenied and Preempts summarize allocation
	// activity: grants issued, grants the receiving station actually used
	// to place a job, grants it declined (pacing, no jobs left, disk), and
	// Up-Down preemption orders sent.
	Grants       uint64
	GrantsUsed   uint64
	GrantsDenied uint64
	Preempts     uint64
	// Persistent reports whether a state directory is configured.
	Persistent bool
	// Journal is the durable-state journal activity.
	Journal JournalStats
	// Degraded reports that more than the configured fraction of the
	// pool is non-healthy, so up-down index movement is frozen (users are
	// not charged or credited for infrastructure failure).
	Degraded bool
	// Suspects, Quarantines, Readmissions, and ByzantineReplies count
	// health-state activity this incarnation.
	Suspects         uint64
	Quarantines      uint64
	Readmissions     uint64
	ByzantineReplies uint64
	// ReadyFailures holds the coordinator's failing readiness check as
	// one "coordinator@<addr>: reason" line — the reason /healthz serves
	// in its 503 body, so condor-status and the dashboard can show *why*
	// it is unready. Empty means ready (and from coordinators predating
	// this field).
	ReadyFailures []string
	// PollIntervalMillis is the coordinator's poll (allocation-cycle)
	// interval, which condor-web divides cycle age by for cycle_lag. 0
	// from coordinators predating this field.
	PollIntervalMillis int64
	// DecideCount and DecideSeconds are the active policy's
	// condor_policy_decide_seconds count and sum in this process: the
	// dashboard turns their deltas into a mean decide latency.
	DecideCount   uint64
	DecideSeconds float64
}

// PoolStatusReply is the pool table.
type PoolStatusReply struct {
	Stations []StationInfo
	// Wire is the coordinator's connection-pool activity (all zero when
	// the coordinator runs in dial-per-RPC mode).
	Wire WireStats
	// Coordinator describes the coordinator daemon: incarnation, uptime,
	// and journal/recovery state.
	Coordinator CoordinatorInfo
}

// --- shadow ↔ starter (Remote Unix) ----------------------------------

// PlaceRequest ships a job to an execution machine. Checkpoint is a
// ckpt-format blob (sequence 0 for a fresh job). The connection that
// carried PlaceRequest (a link, see internal/ru) serves that job: the
// executor sends SyscallMsg and finally one of JobDoneMsg/JobVacatedMsg
// back over it. Once that terminal message is acknowledged the link
// stays open for the home station's next PlaceRequest to this machine.
type PlaceRequest struct {
	JobID      string
	Owner      string
	HomeHost   string
	Checkpoint []byte
}

// PlaceReply accepts or rejects the placement.
type PlaceReply struct {
	Accepted bool
	Reason   string
}

// SyscallMsg forwards one guest system call to the shadow.
type SyscallMsg struct {
	JobID string
	Req   cvm.SyscallRequest
}

// SyscallReplyMsg is the shadow's answer.
type SyscallReplyMsg struct {
	Rep cvm.SyscallReply
}

// JobDoneMsg reports job termination to the shadow.
type JobDoneMsg struct {
	JobID    string
	ExitCode int64
	Steps    uint64
	Syscalls uint64
	Faulted  bool
	FaultMsg string
}

// JobVacatedMsg returns a checkpointed job to the shadow.
type JobVacatedMsg struct {
	JobID      string
	Checkpoint []byte
	Reason     string
	Steps      uint64
}

// JobCheckpointMsg ships a periodic checkpoint to the shadow while the
// job keeps running (§4's proposed strategy; the A5 ablation). One-way.
type JobCheckpointMsg struct {
	JobID      string
	Checkpoint []byte
	Steps      uint64
}

// JobSuspendedMsg is a one-way notice: owner returned, grace period
// started.
type JobSuspendedMsg struct {
	JobID string
}

// JobResumedMsg is a one-way notice: owner left again within the grace
// period; the job continues where it stopped.
type JobResumedMsg struct {
	JobID string
}

// Ack is a generic empty acknowledgement.
type Ack struct{}
