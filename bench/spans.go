package main

import (
	"sort"
	"sync"
	"time"
)

// span is one harness-side operation: a call into a layer (submit,
// cycle, wait, vacate, a probe) or a per-job phase rebuilt from event
// timestamps (queue, place, exec, vacate-gap). Parent is the span it is
// part of, Cause the span that set it in motion; spans of one job share
// Job.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Cause   int     `json:"caused_by,omitempty"`
	Name    string  `json:"name"`
	Job     string  `json:"job,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`

	start, end time.Time
}

// recorder holds spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	root  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (r *recorder) add(name, job string, parent int, start, end time.Time) int {
	return r.addCaused(name, job, parent, 0, start, end)
}

// addCaused is add for a span that another span, not its parent, set in
// motion: a job's placement is caused by the cycle that granted it.
func (r *recorder) addCaused(name, job string, parent, cause int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cause: cause, Name: name, Job: job, start: start, end: end})
	return id
}

// rootID is the span of the round in progress; harness calls hang off it.
func (r *recorder) rootID() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.root
}

func (r *recorder) setRoot(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
}

// setEnd extends a span opened with a provisional end.
func (r *recorder) setEnd(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].end = end
	r.mu.Unlock()
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// finish computes every span's self time — its duration minus the part
// of that interval its children cover — and the per-name totals.
func (r *recorder) finish() ([]span, []selfRow) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for i := range r.spans {
		if p := r.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	byName := make(map[string]*selfRow)
	for i := range r.spans {
		s := &r.spans[i]
		dur := s.end.Sub(s.start)
		self := dur - covered(s.start, s.end, r.spans, children[s.ID])
		s.StartUS = us(s.start.Sub(r.epoch))
		s.DurUS = us(dur)
		s.SelfUS = us(self)
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalMS += ms(dur)
		row.SelfMS += ms(self)
	}
	rows := make([]selfRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return r.spans, rows
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end time.Time, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start.Before(spans[kids[j]].start) })
	var total time.Duration
	cur := start
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}
