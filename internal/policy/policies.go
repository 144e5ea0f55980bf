// The built-in rankers, one per registered policy (registry.go).
package policy

import (
	"sort"
	"time"

	"condor/internal/updown"
)

// DefaultBackfillWindow bounds how long a job may run and still jump
// the queue under the backfill policy.
const DefaultBackfillWindow = 30 * time.Minute

// UpDownRanker ranks by the Up-Down table alone — the paper's §2.4
// ordering and the seed algorithm's ranking stage.
type UpDownRanker struct{}

// Rank implements Ranker.
func (UpDownRanker) Rank(wanting []string, _ *Pool, table *updown.Table, _ *Config) []string {
	return table.Rank(wanting)
}

// Better implements Ranker.
func (UpDownRanker) Better(a, b string, _ *Pool, table *updown.Table, _ *Config) bool {
	return table.Better(a, b)
}

// FIFORanker ranks by first-seen order, ignoring consumption history.
// It exists for the A3 ablation (Up-Down vs FIFO) and is the one
// stateful ranker, so each fifo Policy instance gets a fresh one.
//
// The arrival table is bounded: stations unseen for longest are evicted
// once the table outgrows max, so a churn of short-lived registrations
// cannot grow it without limit. A pruned station that reappears
// re-enters at the back of the order, exactly like a genuinely new
// registration.
type FIFORanker struct {
	order    map[string]int
	lastSeen map[string]uint64
	gen      uint64
	next     int
	max      int
}

// fifoMaxEntries bounds a fifo policy's arrival table — far above any
// paper-scale pool, small enough that a month of registration churn
// stays flat.
const fifoMaxEntries = 4096

func newFIFORanker(max int) *FIFORanker {
	return &FIFORanker{
		order:    make(map[string]int),
		lastSeen: make(map[string]uint64),
		max:      max,
	}
}

// Touch registers a station, establishing its FIFO position — callers
// that know the arrival order (the simulator) use it to make runs
// reproducible.
func (f *FIFORanker) Touch(name string) {
	if _, ok := f.order[name]; !ok {
		f.order[name] = f.next
		f.next++
	}
	f.lastSeen[name] = f.gen
}

// Rank implements Ranker.
func (f *FIFORanker) Rank(wanting []string, _ *Pool, _ *updown.Table, _ *Config) []string {
	f.gen++
	out := append([]string(nil), wanting...)
	for _, n := range out {
		f.Touch(n)
	}
	f.prune()
	sort.SliceStable(out, func(i, j int) bool { return f.order[out[i]] < f.order[out[j]] })
	return out
}

// Better implements Ranker.
func (f *FIFORanker) Better(a, b string, _ *Pool, _ *updown.Table, _ *Config) bool {
	f.Touch(a)
	f.Touch(b)
	return f.order[a] < f.order[b]
}

// prune evicts the longest-unseen stations once the table outgrows its
// bound. Names seen in the current generation are never evicted, and
// eviction order is deterministic: oldest lastSeen first, FIFO position
// as the tie-break.
func (f *FIFORanker) prune() {
	if len(f.order) <= f.max {
		return
	}
	type entry struct {
		name string
		seen uint64
		pos  int
	}
	evictable := make([]entry, 0, len(f.order))
	for name, pos := range f.order {
		if seen := f.lastSeen[name]; seen < f.gen {
			evictable = append(evictable, entry{name, seen, pos})
		}
	}
	sort.Slice(evictable, func(i, j int) bool {
		if evictable[i].seen != evictable[j].seen {
			return evictable[i].seen < evictable[j].seen
		}
		return evictable[i].pos < evictable[j].pos
	})
	for _, e := range evictable {
		if len(f.order) <= f.max {
			return
		}
		delete(f.order, e.name)
		delete(f.lastSeen, e.name)
	}
}

// BusiestRanker serves the deepest queue first — pure pressure relief
// with no fairness memory; ties fall back to the Up-Down table so the
// order stays total and deterministic.
type BusiestRanker struct{}

// Rank implements Ranker.
func (r BusiestRanker) Rank(wanting []string, pool *Pool, table *updown.Table, cfg *Config) []string {
	out := append([]string(nil), wanting...)
	sort.SliceStable(out, func(i, j int) bool { return r.Better(out[i], out[j], pool, table, cfg) })
	return out
}

// Better implements Ranker.
func (BusiestRanker) Better(a, b string, pool *Pool, table *updown.Table, _ *Config) bool {
	wa := pool.byName[a].WaitingJobs
	wb := pool.byName[b].WaitingJobs
	if wa != wb {
		return wa > wb
	}
	return table.Better(a, b)
}

// BackfillRanker keeps the Up-Down order but, behind the head of the
// queue, promotes stations whose shortest waiting job fits in the
// backfill window. They cannot delay the head: per-station pacing (§4)
// caps the head at one grant per cycle regardless, so letting short
// work jump the rest of the line raises utilization without starving
// anyone. Preemption rights (Better) stay the Up-Down priority —
// jumping the grant queue must not buy eviction power.
type BackfillRanker struct{}

// Rank implements Ranker.
func (BackfillRanker) Rank(wanting []string, pool *Pool, table *updown.Table, _ *Config) []string {
	ranked := table.Rank(wanting)
	if len(ranked) <= 2 {
		return ranked
	}
	out := make([]string, 0, len(ranked))
	out = append(out, ranked[0])
	long := make([]string, 0, len(ranked)-1)
	for _, name := range ranked[1:] {
		if sj := pool.byName[name].ShortestJob; sj > 0 && sj <= DefaultBackfillWindow {
			out = append(out, name)
		} else {
			long = append(long, name)
		}
	}
	return append(out, long...)
}

// Better implements Ranker.
func (BackfillRanker) Better(a, b string, _ *Pool, table *updown.Table, _ *Config) bool {
	return table.Better(a, b)
}
