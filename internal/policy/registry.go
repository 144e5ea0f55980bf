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
// *A Taxonomy of Schedulers* surveys: registration order (fifo, the A3
// ablation) and queue pressure (busiest-first). Every one ranks only by
// the Up-Down table and fields a live poll reply carries, so each runs
// live exactly as it runs in simulation, and all must pass the shared conformance suite
// (conformance_test.go). An entry is one order (policies.go) and holds
// no state, so every Policy of a name decides alike.
var registry = map[string]order{
	"updown":        upDown,
	"fifo":          fifo,
	"busiest-first": busiest,
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

// New returns the named policy. The empty name
// resolves to DefaultPolicy; unknown names are an error listing the
// alternatives.
func New(name string) (*Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	better, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %v)", name, Names())
	}
	return &Policy{name: name, better: better, met: newPolicyMetrics(name)}, nil
}

// MustNew is New for callers whose name is statically known.
func MustNew(name string) *Policy {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}
