package accounting

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"condor/internal/figures"
)

// Paper-style report rendering: the tables condor-report prints. Living
// in this package (rather than the command) lets the e2e tests assert on
// the exact text a user sees.

// leverageCap bounds leverage in Figure 9 and in rendered reports: a job
// that needed no measurable support has unbounded leverage, shown as the
// cap.
const leverageCap = 1e6

// Section is one named ledger view in a report.
type Section struct {
	Name string
	View View
}

// RenderReport renders sections in order as paper-style tables: per-user
// capacity and leverage (Figure 9 shape), per-station totals with the
// coordinator's allocation counters, the goodput/badput/checkpoint
// breakdown, the queue-wait distribution, and — when the view carries
// sampler history — the cluster utilization profile over time (Figure 5
// shape) and schedule-index trajectories. width bounds chart width
// (<= 0 uses the default).
func RenderReport(sections []Section, width int) string {
	var b strings.Builder
	for i, sec := range sections {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "== accounting: %s ==\n\n", sec.Name)
		renderView(&b, sec.View, width)
	}
	return b.String()
}

func renderView(b *strings.Builder, v View, width int) {
	if len(v.Users) > 0 {
		b.WriteString("Per-user capacity and leverage (Figure 9 shape):\n")
		rows := make([][]string, 0, len(v.Users))
		for _, u := range v.Users {
			rows = append(rows, []string{
				u.Name,
				fmt.Sprint(u.Jobs),
				fmt.Sprint(u.Retired),
				fmtSteps(u.RemoteSteps),
				fmtDur(u.RemoteNanos),
				fmt.Sprint(u.Syscalls),
				fmtDur(u.SupportNanos),
				fmtLeverage(u.Leverage),
			})
		}
		b.WriteString(figures.Table(
			[]string{"User", "Jobs", "Done", "Steps", "Remote CPU", "Syscalls", "Support", "Leverage"},
			rows))
		b.WriteString("\n")
	}

	if len(v.Stations) > 0 {
		alloc := make(map[string]AllocTotals, len(v.Alloc))
		for _, a := range v.Alloc {
			alloc[a.Station] = a.AllocTotals
		}
		b.WriteString("Per-station totals:\n")
		rows := make([][]string, 0, len(v.Stations))
		for _, s := range v.Stations {
			a := alloc[s.Name]
			rows = append(rows, []string{
				s.Name,
				fmt.Sprint(s.Jobs),
				fmtSteps(s.RemoteSteps),
				fmtSteps(s.BadputSteps),
				fmt.Sprint(s.Preempts),
				fmt.Sprint(s.Checkpoints),
				fmtDur(s.CkptNanos),
				fmt.Sprintf("%d/%d/%d", a.Grants, a.GrantsUsed, a.GrantsDenied),
				fmtDur(a.CapacityNanos),
			})
		}
		b.WriteString(figures.Table(
			[]string{"Station", "Jobs", "Steps", "Badput", "Preempts", "Ckpts", "Ckpt CPU",
				"Grants i/u/d", "Held"},
			rows))
		b.WriteString("\n")
	} else if len(v.Alloc) > 0 {
		// A coordinator-only view has allocation rows but no job meters.
		b.WriteString("Per-station allocation (coordinator):\n")
		rows := make([][]string, 0, len(v.Alloc))
		for _, a := range v.Alloc {
			rows = append(rows, []string{
				a.Station,
				fmt.Sprint(a.Grants), fmt.Sprint(a.GrantsUsed), fmt.Sprint(a.GrantsDenied),
				fmt.Sprint(a.Preempts),
				fmt.Sprint(a.CapacityCycles), fmtDur(a.CapacityNanos),
			})
		}
		b.WriteString(figures.Table(
			[]string{"Station", "Grants", "Used", "Denied", "Preempts", "Cycles", "Held"},
			rows))
		b.WriteString("\n")
	}

	renderBreakdown(b, v)
	renderWaitDist(b, v.QueueWait)
	renderSeries(b, v.Series, width)
}

// renderBreakdown prints the goodput/badput/checkpoint-overhead split.
func renderBreakdown(b *strings.Builder, v View) {
	var t JobTotals
	for _, s := range v.Stations {
		t.add(s.JobTotals)
	}
	if t.RemoteSteps == 0 && t.Checkpoints == 0 {
		return
	}
	b.WriteString("Work breakdown:\n")
	good := t.GoodputSteps()
	pct := func(part uint64) float64 {
		if t.RemoteSteps == 0 {
			return 0
		}
		return 100 * float64(part) / float64(t.RemoteSteps)
	}
	rows := [][]string{
		{"goodput", fmtSteps(good), fmt.Sprintf("%.1f%%", pct(good))},
		{"badput (redone after preemption)", fmtSteps(t.BadputSteps), fmt.Sprintf("%.1f%%", pct(t.BadputSteps))},
		{"checkpoint overhead", fmt.Sprintf("%d ckpts, %s", t.Checkpoints, fmtBytes(t.CkptBytes)),
			fmtDur(t.CkptNanos)},
	}
	b.WriteString(figures.Table([]string{"Component", "Amount", "Share"}, rows))
	b.WriteString("\n")
}

func renderWaitDist(b *strings.Builder, w WaitDist) {
	if w.Count == 0 {
		return
	}
	b.WriteString("Queue-wait distribution (idle episodes ended by a placement):\n")
	var maxCount uint64
	for _, c := range w.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	rows := make([][]string, 0, len(w.Counts))
	for i, c := range w.Counts {
		if c == 0 {
			continue
		}
		bar := strings.Repeat("#", int(1+19*c/maxCount))
		rows = append(rows, []string{WaitBucketLabel(i), fmt.Sprint(c), bar})
	}
	b.WriteString(figures.Table([]string{"Wait", "Count", ""}, rows))
	mean := time.Duration(0)
	if w.Count > 0 {
		mean = time.Duration(w.SumNanos / int64(w.Count))
	}
	fmt.Fprintf(b, "%d episodes, mean wait %s\n\n", w.Count, mean.Round(time.Microsecond))
}

func renderSeries(b *strings.Builder, series map[string][]Point, width int) {
	if len(series) == 0 {
		return
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	// Utilization profile gauges chart (Figure 5 shape); schedule-index
	// trajectories compress to sparklines.
	var sparks [][]string
	for _, name := range names {
		pts := series[name]
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.V
		}
		if strings.HasPrefix(name, "util/") {
			b.WriteString(figures.Chart("Utilization profile: "+name, vals, width, 8))
			b.WriteString("\n")
			continue
		}
		sparks = append(sparks, []string{
			name, figures.Sparkline(vals, 32), fmt.Sprintf("%.2f", vals[len(vals)-1]),
		})
	}
	if len(sparks) > 0 {
		b.WriteString("Gauge trajectories (oldest → newest):\n")
		b.WriteString(figures.Table([]string{"Series", "Trend", "Last"}, sparks))
		b.WriteString("\n")
	}
}

func fmtDur(nanos int64) string {
	return time.Duration(nanos).Round(time.Microsecond).String()
}

func fmtLeverage(lev float64) string {
	if lev >= leverageCap {
		return fmt.Sprintf(">%.0e", leverageCap)
	}
	return fmt.Sprintf("%.1f", lev)
}

func fmtSteps(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
