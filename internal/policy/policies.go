// The built-in orders, one per registered policy (registry.go).
package policy

import "condor/internal/updown"

// An order reports whether requester a strictly outranks b. It is the
// whole of what a policy chooses: the pipeline ranks requesters by a
// stable sort on it and judges every preemption by it (§2.4). table is
// the pool's Up-Down fairness memory; an order reads as much of it as it
// needs and never updates it.
type order func(a, b string, pool *Pool, table *updown.Table) bool

// upDown is the paper's §2.4 order: lower schedule index first,
// registration order on ties.
func upDown(a, b string, _ *Pool, table *updown.Table) bool {
	return table.Better(a, b)
}

// fifo is arrival order, ignoring consumption history: the station that
// registered with the Up-Down table first is served first. It exists for
// the A3 ablation (Up-Down vs FIFO).
func fifo(a, b string, _ *Pool, table *updown.Table) bool {
	return table.Earlier(a, b)
}

// busiest serves the deepest queue first — pure pressure relief with no
// fairness memory; ties fall back to the Up-Down order so the order
// stays total and deterministic.
func busiest(a, b string, pool *Pool, table *updown.Table) bool {
	wa := pool.byName[a].WaitingJobs
	wb := pool.byName[b].WaitingJobs
	if wa != wb {
		return wa > wb
	}
	return table.Better(a, b)
}
