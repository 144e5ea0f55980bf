package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanJSON is the exported shape of one span: what a TracesReply and
// condor-web's /api/traces carry.
type SpanJSON struct {
	TraceID string            `json:"traceID"`
	SpanID  string            `json:"spanID"`
	Parent  string            `json:"parentID,omitempty"`
	Name    string            `json:"name"`
	Job     string            `json:"job,omitempty"`
	Station string            `json:"station,omitempty"`
	Start   time.Time         `json:"start"`
	DurUs   int64             `json:"durUs"`
	Err     string            `json:"err,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Page is a filtered snapshot of a recorder.
type Page struct {
	Spans   []SpanJSON `json:"spans"`
	Total   uint64     `json:"total"`   // spans ever recorded
	Dropped uint64     `json:"dropped"` // spans lost to ring wraparound
}

// toJSON converts a recorded span to its exposition shape.
func toJSON(s Span) SpanJSON {
	out := SpanJSON{
		TraceID: s.TraceID.String(),
		SpanID:  s.SpanID.String(),
		Name:    s.Name,
		Job:     s.Job,
		Station: s.Station,
		Start:   s.Start,
		DurUs:   s.Duration().Microseconds(),
		Err:     s.Err,
	}
	if s.Parent.IsValid() {
		out.Parent = s.Parent.String()
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	return out
}

// PageFor snapshots the recorder into a Page, optionally filtered. A
// non-empty traceID keeps only that trace. A non-empty job keeps every
// trace that contains at least one span tagged with that job ID — so a
// job query returns the complete tree (grant spans from the coordinator
// included) even though not every span carries the job tag.
func (r *Recorder) PageFor(traceID, job string) Page {
	spans := r.Snapshot()
	if job != "" {
		keep := map[TraceID]bool{}
		for _, s := range spans {
			if s.Job == job {
				keep[s.TraceID] = true
			}
		}
		filtered := spans[:0]
		for _, s := range spans {
			if keep[s.TraceID] {
				filtered = append(filtered, s)
			}
		}
		spans = filtered
	}
	if traceID != "" {
		filtered := spans[:0]
		for _, s := range spans {
			if s.TraceID.String() == traceID {
				filtered = append(filtered, s)
			}
		}
		spans = filtered
	}
	p := Page{Spans: make([]SpanJSON, 0, len(spans)), Total: r.Total(), Dropped: r.Dropped()}
	for _, s := range spans {
		p.Spans = append(p.Spans, toJSON(s))
	}
	return p
}

// --- waterfall rendering -----------------------------------------------

// waterfallWidth is the character width of the timeline bars.
const waterfallWidth = 48

// RenderWaterfall prints each trace in the page as an indented waterfall
// timeline: spans ordered parent-before-child (ties broken by start
// time), each with a bar scaled to the trace's total extent — the
// "where did the time go" view for one job.
func RenderWaterfall(p Page) string {
	if len(p.Spans) == 0 {
		return "no spans\n"
	}
	byTrace := map[string][]SpanJSON{}
	order := []string{}
	for _, s := range p.Spans {
		if _, ok := byTrace[s.TraceID]; !ok {
			order = append(order, s.TraceID)
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	var b strings.Builder
	for _, tid := range order {
		renderTrace(&b, tid, byTrace[tid])
	}
	if p.Dropped > 0 {
		fmt.Fprintf(&b, "(%d spans dropped by ring wraparound; timelines may be partial)\n", p.Dropped)
	}
	return b.String()
}

func renderTrace(b *strings.Builder, tid string, spans []SpanJSON) {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	t0 := spans[0].Start
	tEnd := t0
	job := ""
	for _, s := range spans {
		if end := s.Start.Add(time.Duration(s.DurUs) * time.Microsecond); end.After(tEnd) {
			tEnd = end
		}
		if job == "" && s.Job != "" {
			job = s.Job
		}
	}
	total := tEnd.Sub(t0)
	if total <= 0 {
		total = time.Microsecond
	}
	fmt.Fprintf(b, "trace %s  job=%s  total=%s  spans=%d\n", tid, job, total.Round(time.Microsecond), len(spans))

	// Parent-before-child ordering via DFS over the span tree; orphans
	// (parent not in the page, e.g. sampled-out or dropped) rank as
	// roots.
	children := map[string][]int{}
	haveID := map[string]bool{}
	for _, s := range spans {
		haveID[s.SpanID] = true
	}
	roots := []int{}
	for i, s := range spans {
		if s.Parent != "" && haveID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := spans[idx]
		renderSpanLine(b, s, t0, total, depth)
		for _, c := range children[s.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	b.WriteByte('\n')
}

func renderSpanLine(b *strings.Builder, s SpanJSON, t0 time.Time, total time.Duration, depth int) {
	offset := s.Start.Sub(t0)
	dur := time.Duration(s.DurUs) * time.Microsecond
	lead := int(int64(waterfallWidth) * int64(offset) / int64(total))
	width := int(int64(waterfallWidth) * int64(dur) / int64(total))
	if width < 1 {
		width = 1
	}
	if lead+width > waterfallWidth {
		lead = waterfallWidth - width
		if lead < 0 {
			lead = 0
		}
	}
	bar := strings.Repeat(" ", lead) + strings.Repeat("#", width) +
		strings.Repeat(" ", waterfallWidth-lead-width)
	label := strings.Repeat("  ", depth) + s.Name
	if s.Station != "" {
		label += "@" + s.Station
	}
	errMark := ""
	if s.Err != "" {
		errMark = "  ERR=" + s.Err
	}
	fmt.Fprintf(b, "  %-28s |%s| +%-10s %s%s\n",
		label, bar, offset.Round(time.Microsecond), dur.Round(time.Microsecond), errMark)
}
