package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"condor/internal/figures"
	"condor/internal/telemetry"
)

// runMetrics scrapes a daemon's /metrics endpoint (condor-coordinator or
// condor-stationd started with -http) and renders the condor series:
// counters and gauges as plain values, histograms as count / mean /
// approximate quantiles derived from the cumulative buckets.
func runMetrics(target string) error {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	if !strings.HasSuffix(target, "/metrics") {
		target = strings.TrimRight(target, "/") + "/metrics"
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: HTTP %s", target, resp.Status)
	}
	page, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", target, err)
	}
	fmt.Printf("scraped %s\n\n", target)
	printScraped(os.Stdout, page)
	return nil
}

// seriesName renders a sample's identity the way the page spelled it:
// name{label="value",...}, minus the histogram bucket bound.
func seriesName(name string, labels []telemetry.Label) string {
	var b strings.Builder
	b.WriteString(name)
	sep := byte('{')
	for _, l := range labels {
		if l.Name == "le" {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(l.String())
		sep = ','
	}
	if sep == ',' {
		b.WriteByte('}')
	}
	return b.String()
}

// hist is one histogram series; buckets holds the cumulative counts in
// page order, which the exposition format keeps ascending by bound.
type hist struct {
	count, sum float64
	buckets    []telemetry.Sample
}

// quantile returns the upper bound of the bucket where the cumulative
// count crosses q — a coarse estimate, good enough for a status line.
func (h *hist) quantile(q float64) string {
	for _, b := range h.buckets {
		if h.count > 0 && b.Value >= q*h.count {
			if le := b.Get("le"); le != "+Inf" {
				return "≤" + le
			}
			return "+Inf"
		}
	}
	return "-"
}

func printScraped(w io.Writer, page *telemetry.ParsedPage) {
	hists := make(map[string]*hist) // by seriesName
	var scalarRows [][]string
	for _, family := range page.Names() {
		fam := page.Family(family)
		for _, sm := range fam.Samples {
			if fam.Type != "histogram" {
				scalarRows = append(scalarRows, []string{seriesName(sm.Name, sm.Labels), fam.Type, formatValue(sm.Value)})
				continue
			}
			k := seriesName(family, sm.Labels)
			h := hists[k]
			if h == nil {
				h = &hist{}
				hists[k] = h
			}
			switch strings.TrimPrefix(sm.Name, family) {
			case "_bucket":
				h.buckets = append(h.buckets, sm)
			case "_sum":
				h.sum = sm.Value
			case "_count":
				h.count = sm.Value
			}
		}
	}
	sort.Slice(scalarRows, func(i, j int) bool { return scalarRows[i][0] < scalarRows[j][0] })
	fmt.Fprint(w, figures.Table([]string{"Metric", "Type", "Value"}, scalarRows))

	var histRows [][]string
	for name, h := range hists {
		mean := "-"
		if h.count > 0 {
			mean = formatValue(h.sum / h.count)
		}
		histRows = append(histRows, []string{
			name, formatValue(h.count), mean, h.quantile(0.5), h.quantile(0.95), h.quantile(0.99),
		})
	}
	sort.Slice(histRows, func(i, j int) bool { return histRows[i][0] < histRows[j][0] })
	if len(histRows) > 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, figures.Table([]string{"Histogram", "Count", "Mean", "p50", "p95", "p99"}, histRows))
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
