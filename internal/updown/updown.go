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
}

// DefaultConfig mirrors the paper's behaviour at poll-cycle granularity.
func DefaultConfig() Config {
	return Config{UpRate: 1.0, DownRate: 1.0, DecayRate: 0.5, MaxAbs: 10_000}
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
}

// Table holds the schedule indexes. It is safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	cfg     Config
	indexes map[string]float64
	// arrival tracks registration order for deterministic tie-breaks.
	arrival map[string]int
	nextArr int
}

// NewTable returns an empty index table.
func NewTable(cfg Config) *Table {
	cfg.sanitize()
	return &Table{
		cfg:     cfg,
		indexes: make(map[string]float64),
		arrival: make(map[string]int),
	}
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

// Earlier reports whether station a registered before b — the whole of
// the fifo policy's order. A station the table does not hold (one Remove
// forgot, whose job may still run elsewhere) comes after every station
// it does, and re-enters last when it is touched again.
func (t *Table) Earlier(a, b string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ia, ok := t.arrival[a]
	if !ok {
		return false
	}
	ib, ok := t.arrival[b]
	return !ok || ia < ib
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
// coordinator's crash-recovery path restoring its saved state.
// Stations are (re-)registered in sorted-name order, so tie-break
// arrival order is deterministic after a restart even though the
// original registration order is not part of the saved state.
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
	}
}

// Remove forgets a station entirely.
func (t *Table) Remove(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.indexes, name)
	delete(t.arrival, name)
}
