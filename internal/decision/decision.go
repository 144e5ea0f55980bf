// Package decision is the scheduler's audit trail: the "why" counterpart
// of internal/trace's "what". Where a trace shows where one job spent its
// time, a decision audit shows why the policy pipeline did what it did in
// one cycle — which predicate filtered each machine (threshold vs
// observed), how the ranker scored each requester, the placement order,
// and every victim comparison the preemptor made under the policy's own
// Better relation.
//
// Design constraints, in priority order (mirroring internal/trace):
//
//  1. The recorder-off path is free. The pipeline threads an optional
//     *Builder; every Builder method is nil-receiver safe and the
//     pipeline only assembles audit values behind a nil check, so a nil
//     builder costs one branch per site and zero allocations.
//  2. Recording is a bounded ring (internal/ring) of pointers to
//     immutable CycleAudits. Under overflow the oldest cycles are
//     overwritten and counted, never the newest.
//  3. One audit is built by one goroutine (the coordinator's cycle or
//     the simulator's poll loop) and becomes immutable at Done; only
//     then is it published, so readers never observe a torn audit.
package decision

import (
	"sort"
	"time"

	"condor/internal/ring"
	"condor/internal/telemetry"
)

// Feature is one named input the ranker saw for a requester — the
// breakdown behind a rank position ("waiting=3", "index=0.25").
type Feature struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Rejection records one predicate turning a machine down. Requester is
// empty for the requester-blind candidate phase (the rejection applies
// to every requester this cycle) and names the concrete requester for
// placement-phase rejections.
type Rejection struct {
	Station   string `json:"station"`
	Requester string `json:"requester,omitempty"`
	Predicate string `json:"predicate"`
	// Threshold/Observed explain the failing comparison (the
	// predicate's Explain), e.g.
	// "disk >= 1048576" vs "524288".
	Threshold string `json:"threshold,omitempty"`
	Observed  string `json:"observed,omitempty"`
}

// RankEntry is one requester as the ranker ordered it.
type RankEntry struct {
	Requester string `json:"requester"`
	// Position is the 0-based rank (0 = served first).
	Position int `json:"position"`
	// Score is the requester's Up-Down schedule index (lower wins under
	// Up-Down); HasScore distinguishes a real 0.
	Score    float64   `json:"score,omitempty"`
	HasScore bool      `json:"hasScore,omitempty"`
	Features []Feature `json:"features,omitempty"`
}

// GrantAudit is one placement the cycle made. JobID is annotated by the
// coordinator after the grant is acted on (the pipeline allocates
// machines to stations, not to specific jobs).
type GrantAudit struct {
	Requester string `json:"requester"`
	Exec      string `json:"exec"`
	JobID     string `json:"jobID,omitempty"`
}

// Unserved is a requester that wanted capacity and got none, with the
// pipeline's reason. Its per-machine rejections are in
// CycleAudit.Rejections under its name.
type Unserved struct {
	Requester string `json:"requester"`
	Reason    string `json:"reason"`
}

// PreemptCompare is one claimed station the preemptor weighed for a
// beneficiary: was its foreign owner strictly outranked, and was it the
// final choice.
type PreemptCompare struct {
	Exec      string `json:"exec"`
	Owner     string `json:"owner"`
	Outranked bool   `json:"outranked"`
	Chosen    bool   `json:"chosen,omitempty"`
}

// PreemptAudit is one beneficiary's pass through the preemptor. An
// empty Exec means no victim was found (every foreign owner outranked
// the beneficiary or no claimed machines existed).
type PreemptAudit struct {
	Beneficiary string           `json:"beneficiary"`
	Exec        string           `json:"exec,omitempty"`
	Victim      string           `json:"victim,omitempty"`
	JobID       string           `json:"jobID,omitempty"`
	Compared    []PreemptCompare `json:"compared,omitempty"`
}

// CycleAudit is the complete record of one scheduling cycle.
type CycleAudit struct {
	// Cycle is the coordinator's (or simulator's) cycle counter.
	Cycle uint64    `json:"cycle"`
	At    time.Time `json:"at"`
	// Policy is the registry name of the pipeline that decided.
	Policy string `json:"policy"`
	// Stations is how many station views entered the pipeline.
	Stations   int         `json:"stations"`
	Requesters []RankEntry `json:"requesters,omitempty"`
	Rejections []Rejection `json:"rejections,omitempty"`
	// Idle is the admitted machines in placement order, before grants
	// consumed any.
	Idle     []string       `json:"idle,omitempty"`
	Grants   []GrantAudit   `json:"grants,omitempty"`
	Unserved []Unserved     `json:"unserved,omitempty"`
	Preempts []PreemptAudit `json:"preempts,omitempty"`
}

// Mentions reports whether the audit involves the named station in any
// role — requester, rejected machine, grant side, or preemption party.
func (a *CycleAudit) Mentions(station string) bool {
	for i := range a.Requesters {
		if a.Requesters[i].Requester == station {
			return true
		}
	}
	for i := range a.Rejections {
		if a.Rejections[i].Station == station || a.Rejections[i].Requester == station {
			return true
		}
	}
	for _, n := range a.Idle {
		if n == station {
			return true
		}
	}
	for i := range a.Grants {
		if a.Grants[i].Requester == station || a.Grants[i].Exec == station {
			return true
		}
	}
	for i := range a.Unserved {
		if a.Unserved[i].Requester == station {
			return true
		}
	}
	for i := range a.Preempts {
		p := &a.Preempts[i]
		if p.Beneficiary == station || p.Exec == station || p.Victim == station {
			return true
		}
	}
	return false
}

// MentionsJob reports whether the audit names the job ID in a grant or
// preemption. (A job that was never granted appears in audits only
// through its home station — use Mentions with the requester name.)
func (a *CycleAudit) MentionsJob(job string) bool {
	for i := range a.Grants {
		if a.Grants[i].JobID == job {
			return true
		}
	}
	for i := range a.Preempts {
		if a.Preempts[i].JobID == job {
			return true
		}
	}
	return false
}

// --- builder -----------------------------------------------------------

// Builder accumulates one cycle's audit. It is single-goroutine (one
// cycle = one decision call) and every method is nil-receiver safe, so
// the pipeline's recorder-off path passes a nil *Builder and pays one
// branch per hook. Call Done exactly once; the returned audit is
// immutable thereafter.
type Builder struct {
	a CycleAudit
}

// NewBuilder starts an audit for the given cycle number.
func NewBuilder(cycle uint64, at time.Time) *Builder {
	return &Builder{a: CycleAudit{Cycle: cycle, At: at}}
}

// Begin stamps the deciding policy and input size.
func (b *Builder) Begin(policy string, stations int) {
	if b == nil {
		return
	}
	b.a.Policy = policy
	b.a.Stations = stations
}

// Requester records one ranked requester.
func (b *Builder) Requester(e RankEntry) {
	if b == nil {
		return
	}
	b.a.Requesters = append(b.a.Requesters, e)
}

// Reject records one predicate rejection.
func (b *Builder) Reject(r Rejection) {
	if b == nil {
		return
	}
	b.a.Rejections = append(b.a.Rejections, r)
}

// Idle records the admitted machines in placement order.
func (b *Builder) Idle(order []string) {
	if b == nil {
		return
	}
	b.a.Idle = append([]string(nil), order...)
}

// Grant records one placement.
func (b *Builder) Grant(requester, exec string) {
	if b == nil {
		return
	}
	b.a.Grants = append(b.a.Grants, GrantAudit{Requester: requester, Exec: exec})
}

// Unserved records a requester that got nothing, with the reason.
func (b *Builder) Unserved(requester, reason string) {
	if b == nil {
		return
	}
	b.a.Unserved = append(b.a.Unserved, Unserved{Requester: requester, Reason: reason})
}

// BeginPreempt opens the preemptor's pass for one beneficiary;
// subsequent PreemptCompared/PreemptOutcome calls attach to it.
func (b *Builder) BeginPreempt(beneficiary string) {
	if b == nil {
		return
	}
	b.a.Preempts = append(b.a.Preempts, PreemptAudit{Beneficiary: beneficiary})
}

// PreemptCompared records one victim-candidate comparison for the open
// beneficiary.
func (b *Builder) PreemptCompared(exec, owner string, outranked bool) {
	if b == nil || len(b.a.Preempts) == 0 {
		return
	}
	p := &b.a.Preempts[len(b.a.Preempts)-1]
	p.Compared = append(p.Compared, PreemptCompare{Exec: exec, Owner: owner, Outranked: outranked})
}

// PreemptOutcome closes the open beneficiary's pass. Empty exec means
// no victim; otherwise the matching comparison is marked chosen.
func (b *Builder) PreemptOutcome(exec, victim, jobID string) {
	if b == nil || len(b.a.Preempts) == 0 {
		return
	}
	p := &b.a.Preempts[len(b.a.Preempts)-1]
	p.Exec, p.Victim, p.JobID = exec, victim, jobID
	for i := range p.Compared {
		if p.Compared[i].Exec == exec {
			p.Compared[i].Chosen = true
		}
	}
}

// AnnotateGrantJob stamps the job ID the coordinator actually placed on
// the i-th grant (the pipeline grants machines, the coordinator picks
// the job).
func (b *Builder) AnnotateGrantJob(i int, jobID string) {
	if b == nil || i < 0 || i >= len(b.a.Grants) {
		return
	}
	b.a.Grants[i].JobID = jobID
}

// Done returns the finished audit. The builder must not be used after.
func (b *Builder) Done() *CycleAudit {
	if b == nil {
		return nil
	}
	return &b.a
}

// --- recorder ----------------------------------------------------------

var (
	mAuditsRecorded = telemetry.NewCounter("condor_decision_audits_recorded_total",
		"Cycle audits written into the in-process decision ring.")
	mAuditsDropped = telemetry.NewCounter("condor_decision_audits_dropped_total",
		"Old cycle audits overwritten by ring wraparound before being scraped.")
)

// Recorder is a bounded ring of finished cycle audits —
// internal/trace's span recorder, holding whole cycles.
type Recorder struct {
	audits *ring.Ring[*CycleAudit]
}

// DefaultCapacity is the cycle capacity of the package-level Default
// recorder: at the paper's 2-minute cycle that is over 8 hours of
// history; at the simulator's pace, the last 256 cycles.
const DefaultCapacity = 256

// Default is the process-wide recorder; /decisions serves it.
var Default = NewRecorder(DefaultCapacity)

// NewRecorder creates a recorder retaining up to capacity cycles.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{audits: ring.New[*CycleAudit](max(capacity, 1))}
}

// Record publishes a finished audit (nil is a no-op, so callers can
// chain Record(b.Done()) without branching on a disabled builder).
func (r *Recorder) Record(a *CycleAudit) {
	if r == nil || a == nil {
		return
	}
	if r.audits.Push(a) {
		mAuditsDropped.Inc()
	}
	mAuditsRecorded.Inc()
}

// Total returns how many audits have ever been recorded.
func (r *Recorder) Total() uint64 { return r.audits.Total() }

// Dropped returns how many audits were overwritten before being read.
func (r *Recorder) Dropped() uint64 { return r.audits.Dropped() }

// Snapshot copies the retained audits, oldest cycle first (recorders
// shared by several coordinators, as in tests, interleave cycles).
func (r *Recorder) Snapshot() []CycleAudit {
	held := r.audits.Snapshot()
	out := make([]CycleAudit, len(held))
	for i, a := range held {
		out[i] = *a
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].At.Before(out[j].At)
	})
	return out
}

// Filter narrows a snapshot the way /decisions and the CLIs do:
//
//	job     keep cycles that name the job ID, or — because a job that
//	        never ran appears only through its home station — cycles
//	        that mention station when job resolution supplied one.
//	station keep cycles mentioning the station in any role
//	cycle   >0 exact cycle number; <0 from the end (-1 = newest); 0 all
//	last    keep only the newest N cycles (0 = all)
//
// Filters compose: job/station first, then cycle, then last.
func Filter(audits []CycleAudit, job, station string, cycle int64, last int) []CycleAudit {
	out := audits
	if job != "" {
		filtered := make([]CycleAudit, 0, len(out))
		for i := range out {
			if out[i].MentionsJob(job) {
				filtered = append(filtered, out[i])
			}
		}
		out = filtered
	}
	if station != "" {
		filtered := make([]CycleAudit, 0, len(out))
		for i := range out {
			if out[i].Mentions(station) {
				filtered = append(filtered, out[i])
			}
		}
		out = filtered
	}
	if cycle > 0 {
		filtered := make([]CycleAudit, 0, 1)
		for i := range out {
			if out[i].Cycle == uint64(cycle) {
				filtered = append(filtered, out[i])
			}
		}
		out = filtered
	} else if cycle < 0 {
		idx := len(out) + int(cycle)
		if idx < 0 {
			out = nil
		} else {
			out = out[idx : idx+1]
		}
	}
	if last > 0 && len(out) > last {
		out = out[len(out)-last:]
	}
	return out
}
