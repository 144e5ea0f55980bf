package telemetry

import (
	"strings"
	"testing"
)

// renderPage writes a parsed page back out in the text format, one
// family at a time in page order. Every family leads with its TYPE line
// (untyped included) so that re-parsing creates the families in the same
// order and files every sample under the family it came from.
func renderPage(p *ParsedPage) string {
	var b strings.Builder
	for _, name := range p.Names() {
		f := p.Family(name)
		b.WriteString("# TYPE " + name + " " + f.Type + "\n")
		if f.Help != "" {
			b.WriteString("# HELP " + name + " " + escapeHelp(f.Help) + "\n")
		}
		for _, s := range f.Samples {
			b.WriteString(s.Name)
			for i, l := range s.Labels {
				if i == 0 {
					b.WriteByte('{')
				} else {
					b.WriteByte(',')
				}
				b.WriteString(l.String())
			}
			if len(s.Labels) > 0 {
				b.WriteByte('}')
			}
			b.WriteString(" " + formatFloat(s.Value) + "\n")
		}
	}
	return b.String()
}

// FuzzParseText feeds the /metrics parser arbitrary bytes — it reads
// pages scraped from other daemons (condor-web, condor-status -metrics).
// It must never panic, and whatever it accepts must survive a round
// trip: the parsed page, written back out, parses to the same page.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("conf_requests_total", "Requests with a \\ backslash and\na newline in HELP.").Add(42)
	vec := reg.CounterVec("conf_labeled_total", "Labeled series.", "path")
	for i, v := range hostileLabelValues {
		vec.With(v).Add(uint64(i + 1))
	}
	reg.Gauge("conf_depth", "A gauge.").Set(-7)
	h := reg.Histogram("conf_latency_seconds", "A histogram.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.ObserveExemplar(5, "trace=00112233 span=4455")
	f.Add(reg.Text())
	for _, bad := range garbagePages {
		f.Add(bad)
	}
	// Filing order: a suffixed sample before and after its base family
	// exists, a family made only by an empty HELP, a trailing timestamp,
	// the non-finite values.
	f.Add("x_sum 1\n# TYPE x histogram\nx_sum 2\nx_count 3 1700000000\n")
	f.Add("# TYPE x histogram\n# HELP x_sum\nx_sum NaN\nx_bucket{le=\"+Inf\"} +Inf\ny -Inf\n")

	f.Fuzz(func(t *testing.T, text string) {
		page, err := ParseTextString(text)
		if err != nil {
			return
		}
		out := renderPage(page)
		again, err := ParseTextString(out)
		if err != nil {
			t.Fatalf("accepted page does not re-parse: %v\n--- rendered ---\n%s", err, out)
		}
		if out2 := renderPage(again); out2 != out {
			t.Fatalf("round trip changed the page\n--- first ---\n%s--- second ---\n%s", out, out2)
		}
	})
}
