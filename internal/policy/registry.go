package policy

import (
	"fmt"
	"sort"
)

// DefaultPolicy is the registry name resolved when no policy is
// configured: the paper's Up-Down algorithm.
const DefaultPolicy = "updown"

// registry holds what tells the built-in policies apart. Up-Down is the
// paper's §2.4 algorithm and the default, decision-identical to the seed
// Decide (the golden fixtures prove it); the rest span the policy space
// *A Taxonomy of Schedulers* surveys: arrival order (fifo, the A3
// ablation), queue pressure (busiest-first) and short-job promotion
// (backfill). All must pass the shared conformance suite
// (conformance_test.go).
var registry = map[string]struct {
	// ranker builds a fresh Ranker for each Policy instance: FIFO's
	// arrival table is per-instance state.
	ranker func() Ranker
	// simOnly names the StationView field the ranker reads that live
	// poll replies do not carry.
	simOnly string
}{
	"updown":        {ranker: func() Ranker { return UpDownRanker{} }},
	"fifo":          {ranker: func() Ranker { return newFIFORanker(fifoMaxEntries) }},
	"busiest-first": {ranker: func() Ranker { return BusiestRanker{} }},
	"backfill":      {ranker: func() Ranker { return BackfillRanker{} }, simOnly: "ShortestJob"},
}

// Names lists the registered policies, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds a fresh instance of the named policy. The empty name
// resolves to DefaultPolicy; unknown names are an error listing the
// alternatives.
func New(name string) (*Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	entry, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	return &Policy{name: name, Ranker: entry.ranker(), simOnly: entry.simOnly, met: newPolicyMetrics(name)}, nil
}

// MustNew is New for callers whose name is statically known.
func MustNew(name string) *Policy {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}
