package policy

import "condor/internal/telemetry"

// Per-policy pipeline instrumentation. The vectors are label-interned
// at Policy construction time so the per-cycle path touches only
// pre-resolved counters — no map lookups, no allocations.
var (
	mDecideSeconds = telemetry.NewHistogramVec("condor_policy_decide_seconds",
		"Latency of one scheduling-pipeline decision cycle.", "policy",
		[]float64{5e-6, 2e-5, 1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 0.25})
	mStageRequesters = telemetry.NewCounterVec("condor_policy_stage_requesters_total",
		"Requesting stations seen by the ranker stage.", "policy")
	mStageCandidates = telemetry.NewCounterVec("condor_policy_stage_candidates_total",
		"Machines admitted by the predicate stage.", "policy")
	mStageFiltered = telemetry.NewCounterVec("condor_policy_stage_filtered_total",
		"Machines rejected by the predicate stage.", "policy")
	mStageGrants = telemetry.NewCounterVec("condor_policy_stage_grants_total",
		"Grants issued by the placement stage.", "policy")
	mStagePreempts = telemetry.NewCounterVec("condor_policy_stage_preempts_total",
		"Victims selected by the preemptor stage.", "policy")
	// mPredicateDenied breaks mStageFiltered down by *which* predicate
	// rejected — the aggregate side of the decision audit. Counted in
	// the requester-blind candidate phase only (the same machine may be
	// re-tested per requester during placement, which would double
	// count), so it agrees with the candidate-phase rejections in the
	// decision audits. The label value is "<policy>/<predicate>".
	mPredicateDenied = telemetry.NewCounterVec("condor_policy_predicate_denied_total",
		"Candidate machines rejected, by policy/predicate (requester-blind phase).", "pred")
)

type policyMetrics struct {
	decide     *telemetry.Histogram
	requesters *telemetry.Counter
	candidates *telemetry.Counter
	filtered   *telemetry.Counter
	grants     *telemetry.Counter
	preempts   *telemetry.Counter
	// denied is parallel to predicates: denied[i] counts
	// candidate-phase rejections by the i-th predicate.
	denied []*telemetry.Counter
}

func newPolicyMetrics(name string) *policyMetrics {
	m := &policyMetrics{
		decide:     mDecideSeconds.With(name),
		requesters: mStageRequesters.With(name),
		candidates: mStageCandidates.With(name),
		filtered:   mStageFiltered.With(name),
		grants:     mStageGrants.With(name),
		preempts:   mStagePreempts.With(name),
	}
	m.denied = make([]*telemetry.Counter, len(predicates))
	for i, p := range predicates {
		m.denied[i] = mPredicateDenied.With(name + "/" + p.name)
	}
	return m
}
