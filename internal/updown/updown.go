// Package updown implements the Up-Down algorithm of Mutka and Livny
// (ICDCS 1987), the fair-share policy Condor's coordinator uses to
// arbitrate remote capacity (§2.4).
//
// The coordinator maintains a schedule index per workstation. When remote
// capacity is allocated to a workstation the index rises; when the
// workstation wants capacity but is denied, the index falls; when it
// neither holds nor wants capacity the index decays toward zero. Lower
// index means higher priority, so a light user who has consumed little
// accumulates priority over a heavy user who has been running jobs on
// many machines — yet the heavy user retains steady access whenever
// capacity is not contended.
package updown

import (
	"math"
	"sort"
	"sync"
)

// Config tunes the index dynamics. All rates are per update tick (one
// coordinator poll cycle).
type Config struct {
	// UpRate is added per machine of remote capacity held.
	UpRate float64
	// DownRate is subtracted when the station wants capacity but holds
	// none of what it asked for.
	DownRate float64
	// DecayRate moves an inactive station's index toward zero.
	DecayRate float64
	// MaxAbs clamps the index magnitude so no station can bank unbounded
	// priority or debt.
	MaxAbs float64
	// HistoryLen bounds the per-station index history retained for
	// observability (0 means the default; negative disables history).
	HistoryLen int
}

// DefaultConfig mirrors the paper's behaviour at poll-cycle granularity.
func DefaultConfig() Config {
	return Config{UpRate: 1.0, DownRate: 1.0, DecayRate: 0.5, MaxAbs: 10_000, HistoryLen: 32}
}

// sanitize resolves a written Config; NewTable is its only caller, so
// the coordinator and the simulator share this one copy of the rule. A
// zero Config is DefaultConfig. A Config that sets anything keeps every
// field it set and defaults only what has no usable zero: there
// DecayRate 0 means no decay.
func (c *Config) sanitize() {
	def := DefaultConfig()
	if *c == (Config{}) {
		*c = def
	}
	if c.UpRate <= 0 {
		c.UpRate = def.UpRate
	}
	if c.DownRate <= 0 {
		c.DownRate = def.DownRate
	}
	if c.DecayRate < 0 {
		c.DecayRate = 0
	}
	if c.MaxAbs <= 0 {
		c.MaxAbs = def.MaxAbs
	}
	if c.HistoryLen == 0 {
		c.HistoryLen = def.HistoryLen
	}
	if c.HistoryLen < 0 {
		c.HistoryLen = 0
	}
}

// histRing is one station's bounded index history.
type histRing struct {
	vals []float64
	next int
	full bool
}

func (r *histRing) push(v float64) {
	if len(r.vals) == 0 {
		return
	}
	r.vals[r.next] = v
	r.next++
	if r.next == len(r.vals) {
		r.next = 0
		r.full = true
	}
}

func (r *histRing) history() []float64 {
	if !r.full {
		return append([]float64(nil), r.vals[:r.next]...)
	}
	out := make([]float64, 0, len(r.vals))
	out = append(out, r.vals[r.next:]...)
	out = append(out, r.vals[:r.next]...)
	return out
}

// Table holds the schedule indexes. It is safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	cfg     Config
	indexes map[string]float64
	// arrival tracks registration order for deterministic tie-breaks.
	arrival map[string]int
	nextArr int
	// history retains each station's recent index trajectory (one point
	// per Update/Restore), bounded by Config.HistoryLen.
	history map[string]*histRing
}

// NewTable returns an empty index table.
func NewTable(cfg Config) *Table {
	cfg.sanitize()
	return &Table{
		cfg:     cfg,
		indexes: make(map[string]float64),
		arrival: make(map[string]int),
		history: make(map[string]*histRing),
	}
}

// recordLocked appends the station's current index to its history.
func (t *Table) recordLocked(name string, idx float64) {
	if t.cfg.HistoryLen <= 0 {
		return
	}
	r, ok := t.history[name]
	if !ok {
		r = &histRing{vals: make([]float64, t.cfg.HistoryLen)}
		t.history[name] = r
	}
	r.push(idx)
}

// Touch registers a station (index starts at zero, per the paper).
func (t *Table) Touch(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touchLocked(name)
}

func (t *Table) touchLocked(name string) {
	if _, ok := t.arrival[name]; !ok {
		t.arrival[name] = t.nextArr
		t.nextArr++
		t.indexes[name] = 0
	}
}

// Update applies one poll cycle's observation for a station: held is the
// number of machines of remote capacity the station currently holds, and
// wanting reports whether it has jobs waiting for (more) capacity.
func (t *Table) Update(name string, held int, wanting bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.touchLocked(name)
	idx := t.indexes[name]
	switch {
	case held > 0:
		// Paying for capacity held. A station can simultaneously be
		// wanting more, but the paper charges for what is held.
		idx += t.cfg.UpRate * float64(held)
	case wanting:
		// Wants capacity, holds none: priority accrues.
		idx -= t.cfg.DownRate
	default:
		// Inactive: decay toward zero.
		switch {
		case idx > 0:
			idx = math.Max(0, idx-t.cfg.DecayRate)
		case idx < 0:
			idx = math.Min(0, idx+t.cfg.DecayRate)
		}
	}
	if idx > t.cfg.MaxAbs {
		idx = t.cfg.MaxAbs
	}
	if idx < -t.cfg.MaxAbs {
		idx = -t.cfg.MaxAbs
	}
	t.indexes[name] = idx
	t.recordLocked(name, idx)
}

// History returns a station's recent index trajectory, oldest first
// (nil when unknown or history is disabled).
func (t *Table) History(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.history[name]
	if !ok {
		return nil
	}
	return r.history()
}

// Histories returns every station's retained trajectory, oldest first.
func (t *Table) Histories() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64, len(t.history))
	for name, r := range t.history {
		if h := r.history(); len(h) > 0 {
			out[name] = h
		}
	}
	return out
}

// Index returns a station's current schedule index (zero if unknown).
func (t *Table) Index(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexes[name]
}

// Better reports whether station a has strictly higher priority than b.
// Lower index wins; ties break by registration order so ranking is total
// and deterministic.
func (t *Table) Better(a, b string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ia, ib := t.indexes[a], t.indexes[b]
	if ia != ib {
		return ia < ib
	}
	return t.arrival[a] < t.arrival[b]
}

// Rank sorts the given station names by descending priority (best
// first). The input slice is not modified.
func (t *Table) Rank(names []string) []string {
	out := append([]string(nil), names...)
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		ia, ib := t.indexes[out[i]], t.indexes[out[j]]
		if ia != ib {
			return ia < ib
		}
		return t.arrival[out[i]] < t.arrival[out[j]]
	})
	return out
}

// Snapshot returns a copy of all indexes.
func (t *Table) Snapshot() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.indexes))
	for k, v := range t.indexes {
		out[k] = v
	}
	return out
}

// Restore overwrites the table with a recovered set of indexes — the
// coordinator's crash-recovery path replaying a journal snapshot.
// Stations are (re-)registered in sorted-name order, so tie-break
// arrival order is deterministic after a restart even though the
// original registration order is not part of the snapshot.
func (t *Table) Restore(indexes map[string]float64) {
	names := make([]string, 0, len(indexes))
	for name := range indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range names {
		t.touchLocked(name)
		idx := indexes[name]
		if idx > t.cfg.MaxAbs {
			idx = t.cfg.MaxAbs
		}
		if idx < -t.cfg.MaxAbs {
			idx = -t.cfg.MaxAbs
		}
		t.indexes[name] = idx
		// The restored value seeds a fresh trajectory: pre-crash history
		// is not part of the snapshot, and stale points from a removed
		// station must not survive its re-registration.
		delete(t.history, name)
		t.recordLocked(name, idx)
	}
}

// Remove forgets a station entirely, its history included.
func (t *Table) Remove(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.indexes, name)
	delete(t.arrival, name)
	delete(t.history, name)
}
