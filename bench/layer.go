package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"condor/internal/cost"
	"condor/internal/policy"
	"condor/internal/trace"
)

// perLayer are the metrics of the traced run: counts the program already
// exports, unit costs from the probes, the layer budget, and the
// workload-specific end-to-end figures that only one or two workloads
// can report. Every workload emits every name; a layer a workload does
// not exercise reads 0. They carry no bound.
var perLayer = []metricDef{
	{"wire.frame_rtt_us", "us"}, {"wire.frame_allocs", "count"}, {"wire.frame_bytes", "B"},
	{"wire.syscall_frame_rtt_us", "us"}, {"wire.syscall_frame_allocs", "count"}, {"wire.syscall_frame_bytes", "B"},
	{"wire.pool_call_rtt_us", "us"}, {"wire.big_frame_ms_per_mb", "ms/MB"},
	{"wire.dials", "count"}, {"wire.reuses", "count"}, {"wire.retries", "count"},
	{"wire.bytes_sent", "B"}, {"wire.frames_sent", "count"},
	{"coordinator.cycles", "count"}, {"coordinator.polls", "count"}, {"coordinator.cycle_busy_s", "s"},
	{"coordinator.poll_rtt_mean_us", "us"}, {"coordinator.poll_fails", "count"},
	{"coordinator.grants", "count"}, {"coordinator.grants_used", "count"}, {"coordinator.grants_denied", "count"},
	{"coordinator.grant_use_ratio", "ratio"}, {"coordinator.grants_per_cycle", "count"}, {"coordinator.act_share", "ratio"},
	{"policy.decide_us", "us"}, {"policy.decide_allocs", "count"}, {"updown.update_us", "us"},
	{"journal.append_us", "us"}, {"journal.appends", "count"}, {"journal.log_bytes", "B"},
	{"schedd.submit_us", "us"}, {"schedd.submit_p95_us", "us"}, {"schedd.queue_wait_ms", "ms"},
	{"schedd.place_ms", "ms"}, {"schedd.placements", "count"}, {"schedd.completed", "count"},
	{"ru.syscall_rtt_us", "us"}, {"ru.syscall_rtt_live_us", "us"}, {"ru.syscall_allocs", "count"},
	{"ru.syscalls", "count"}, {"ru.syscall_bytes", "B"}, {"ru.support_s", "s"}, {"ru.exec_s", "s"},
	{"ru.place_handshake_ms", "ms"}, {"ru.vacate_ship_ms", "ms"}, {"ru.vacates", "count"}, {"ru.completed", "count"},
	{"ckpt.encode_ms_per_mb", "ms/MB"}, {"ckpt.decode_ms_per_mb", "ms/MB"}, {"ckpt.blob_bytes", "B"},
	{"ckpt.compress_ratio", "ratio"}, {"ckpt.bytes_shipped", "B"}, {"ckpt.checkpoints", "count"},
	{"ckpt.store_put_us", "us"}, {"ckpt.store_get_us", "us"},
	{"cvm.minstr_per_s", "1/s"}, {"cvm.snapshot_us", "us"}, {"cvm.steps", "count"}, {"cvm.badput_steps", "count"},
	{"accounting.leverage", "ratio"}, {"decision.records", "count"}, {"trace.spans", "count"},
	{"trace.dropped", "count"}, {"eventlog.events", "count"}, {"obs.trace_overhead_share", "ratio"},
	{"budget.coverage", "ratio"},
	{"budget.wire_share", "ratio"}, {"budget.coordinator_share", "ratio"}, {"budget.policy_share", "ratio"},
	{"budget.journal_share", "ratio"}, {"budget.schedd_share", "ratio"}, {"budget.ru_share", "ratio"},
	{"budget.ckpt_share", "ratio"}, {"budget.cvm_share", "ratio"},
	{"cost.syscall_ratio", "ratio"}, {"cost.transfer_ratio", "ratio"},
	{"jobs_per_s", "1/s"}, {"turnaround_p50_ms", "ms"}, {"turnaround_p95_ms", "ms"},
	{"cycle_p50_ms", "ms"}, {"cycle_p95_ms", "ms"}, {"allocs_per_cycle", "count"},
	{"syscalls_per_s", "1/s"}, {"migration_gap_p50_ms", "ms"}, {"migration_gap_p95_ms", "ms"},
	{"ckpt_mb_per_s", "MB/s"}, {"failed_share", "ratio"},
	{"latency_tail_pct", "%"}, {"latency_samples", "count"},
}

// budgetLayers are the modules the layer budget attributes time to.
var budgetLayers = []string{"wire", "coordinator", "policy", "journal", "schedd", "ru", "ckpt", "cvm"}

// budgetRow is one term of the layer budget: count × unit ÷ parallel.
// Track says which of the two concurrent activities it belongs to: the
// cycle driver's serial path through Coordinator.Cycle, or the job side
// (submitter, executors, shadows), which spreads over the cores.
type budgetRow struct {
	Track    string  `json:"track"`
	Layer    string  `json:"layer"`
	What     string  `json:"what"`
	Count    float64 `json:"count"`
	UnitUS   float64 `json:"unit_us"`
	Parallel float64 `json:"parallel"`
	Seconds  float64 `json:"seconds"`
	Share    float64 `json:"share_of_wall"`
}

// layerMetrics fills values with every per-layer metric: medians of the
// rounds' counters, the probes' unit costs, figures rebuilt from the
// traced rounds' events and spans, the layer budget and the cost-model
// ratios. It writes the trace file and prints the tables.
func layerMetrics(values map[string]float64, w *workload, rounds []*round, traced []bool, rec *recorder, opts runOptions) error {
	keys := make(map[string]bool)
	for _, r := range rounds {
		for k := range r.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var v []float64
		for _, r := range rounds {
			v = append(v, r.layer[k])
		}
		values[k] = median(v)
	}
	var walls, cycleMS, busy, onTotals, offTotals, actShares, queueWaits, placeTimes []float64
	for i, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		var sum time.Duration
		for _, c := range r.cycles {
			cycleMS = append(cycleMS, ms(c.dur))
			sum += c.dur
		}
		busy = append(busy, sum.Seconds())
		actShares = append(actShares, actShare(r.cycles))
		if traced[i] {
			onTotals = append(onTotals, r.total.Seconds())
			if wait, place, ok := phaseSpans(r, rec); ok {
				queueWaits = append(queueWaits, wait)
				placeTimes = append(placeTimes, place)
			}
		} else {
			offTotals = append(offTotals, r.total.Seconds())
		}
	}
	values["schedd.queue_wait_ms"] = median(queueWaits)
	values["schedd.place_ms"] = median(placeTimes)
	values["coordinator.cycle_busy_s"] = median(busy)
	values["coordinator.act_share"] = median(actShares)
	values["cycle_p50_ms"] = median(cycleMS)
	values["cycle_p95_ms"] = percentile(cycleMS, 0.95)
	values["allocs_per_cycle"] = ratio(values["allocs"], values["coordinator.cycles"])
	if len(offTotals) > 0 {
		values["obs.trace_overhead_share"] = ratio(median(onTotals)-median(offTotals), median(offTotals))
	}

	probe := rounds[len(rounds)-1].probe
	probe.calls = opts.sizes.probeCalls
	if err := runProbes(values, probe, rec, opts.outDir); err != nil {
		return err
	}
	paper := cost.Paper()
	values["cost.syscall_ratio"] = ratio(values["ru.syscall_rtt_us"], us(paper.RemoteSyscall))
	values["cost.transfer_ratio"] = ratio(values["ckpt.encode_ms_per_mb"]+values["wire.big_frame_ms_per_mb"], ms(paper.PlacePerMB))

	wall := median(walls)
	rows, coverage := layerBudget(values, wall)
	for _, row := range rows {
		values["budget."+row.Layer+"_share"] += row.Share
	}
	values["budget.coverage"] = coverage

	spans, self := rec.finish()
	printLayerTables(os.Stderr, w, values, rows, self, wall)
	return writeTrace(filepath.Join(opts.outDir, "trace-"+w.name+".json"), w, opts, spans, self, rows)
}

// actShare is the part of a round's cycle time spent acting: in cycles
// that granted, the time beyond a cycle that did not (their median, or
// the shortest cycle when every cycle granted).
func actShare(cycles []cycleRec) float64 {
	var idle []float64
	var total, shortest float64
	for i, c := range cycles {
		d := c.dur.Seconds()
		total += d
		if i == 0 || d < shortest {
			shortest = d
		}
		if c.grants == 0 {
			idle = append(idle, d)
		}
	}
	base := shortest
	if len(idle) > 0 {
		base = median(idle)
	}
	var act float64
	for _, c := range cycles {
		if d := c.dur.Seconds(); c.grants > 0 && d > base {
			act += d - base
		}
	}
	return ratio(act, total)
}

// phaseSpans rebuilds each job's phases from what the harness observed
// and the program's own always-on spans, under one span per job: queue
// (submit → placement begins), place (the schedd's place span: store
// get + encode + ru.Place), exec (running → vacate call or completion)
// and vacate-gap (vacate call → running again). A place and the exec
// after it name the cycle whose grant placed the job as their cause. It
// returns the round's mean queue wait and mean place time in ms (ok is
// false for a workload without jobs).
func phaseSpans(r *round, rec *recorder) (queueWait, place float64, ok bool) {
	if len(r.jobs) == 0 {
		return 0, 0, false
	}
	placeSpans := make(map[string][]trace.Span)
	for _, sp := range r.placeSpans {
		placeSpans[sp.Job] = append(placeSpans[sp.Job], sp)
	}
	cycleOf := func(t time.Time) int {
		i := sort.Search(len(r.cycles), func(i int) bool { return r.cycles[i].start.After(t) })
		if i > 0 && !t.After(r.cycles[i-1].start.Add(r.cycles[i-1].dur)) {
			return r.cycles[i-1].span
		}
		return 0
	}
	var waits, places []float64
	for _, j := range r.jobs {
		if j.doneAt.IsZero() {
			continue
		}
		job := rec.add("job", j.id, rec.rootID(), j.submitAt, j.doneAt)
		spans := placeSpans[j.id]
		for n, pl := range j.places {
			cause := cycleOf(pl.at)
			if n > 0 && n-1 < len(j.vacCalls) {
				rec.addCaused("vacate-gap", j.id, job, cause, j.vacCalls[n-1], pl.at)
			}
			if n < len(spans) {
				sp := spans[n]
				if n == 0 {
					rec.addCaused("queue", j.id, job, 0, j.submitAt, sp.Start)
					waits = append(waits, ms(sp.Start.Sub(j.submitAt)))
				}
				rec.addCaused("place", j.id, job, cause, sp.Start, sp.End)
				places = append(places, ms(sp.Duration()))
			}
			end := j.doneAt
			if n < len(j.vacCalls) {
				end = j.vacCalls[n]
			}
			rec.addCaused("exec", j.id, job, cause, pl.at, end)
		}
	}
	return mean(waits), mean(places), true
}

// layerBudget is the model of where a round's wall time goes: for each
// step, how many times it ran (the program's own counters) times what
// one costs in isolation (the probes), divided by how many run at once.
// Two things run side by side, so there are two tracks: the cycle
// driver's path through Coordinator.Cycle, serial but for the poll
// fan-out, and the job side, one executor per claimed machine sharing
// the cores. The longer track is the blocking path; coverage is its
// modelled time over the measured wall. The last cycle row is not
// modelled: it is what the measured cycle time leaves unexplained, the
// coordinator's own work plus any wait for a busy core.
func layerBudget(v map[string]float64, wall float64) ([]budgetRow, float64) {
	cores := float64(runtime.GOMAXPROCS(0))
	blobMB := v["ckpt.blob_bytes"] / (1 << 20)
	encodeUS := v["ckpt.encode_ms"] * 1000
	decodeUS := v["ckpt.decode_ms"] * 1000
	handshakeUS := v["ru.place_handshake_ms"] * 1000
	rows := []budgetRow{
		{Track: "cycle", Layer: "wire", What: "poll RPC", Count: v["coordinator.polls"], UnitUS: v["wire.pool_call_rtt_us"], Parallel: cores},
		{Track: "cycle", Layer: "wire", What: "grant RPC", Count: v["coordinator.grants"], UnitUS: v["wire.pool_call_rtt_us"], Parallel: 1},
		{Track: "cycle", Layer: "policy", What: "index update", Count: v["coordinator.polls"], UnitUS: v["updown.update_us"], Parallel: 1},
		{Track: "cycle", Layer: "policy", What: "audited decide", Count: v["coordinator.cycles"], UnitUS: v["policy.decide_us"], Parallel: 1},
		{Track: "cycle", Layer: "journal", What: "append+fsync", Count: v["journal.appends"], UnitUS: v["journal.append_us"], Parallel: 1},
		{Track: "cycle", Layer: "ckpt", What: "place: store get + encode", Count: v["schedd.placements"], UnitUS: v["ckpt.store_get_us"] + encodeUS, Parallel: 1},
		{Track: "cycle", Layer: "ru", What: "place: handshake", Count: v["schedd.placements"], UnitUS: handshakeUS, Parallel: 1},
		{Track: "cycle", Layer: "schedd", What: "place: rest of PlaceNext", Count: v["schedd.placements"],
			UnitUS: v["schedd.place_ms"]*1000 - v["ckpt.store_get_us"] - encodeUS - handshakeUS, Parallel: 1},
		{Track: "jobs", Layer: "schedd", What: "submit", Count: v["schedd.completed"], UnitUS: v["schedd.submit_us"], Parallel: cores},
		{Track: "jobs", Layer: "ru", What: "forwarded syscall", Count: v["ru.syscalls"], UnitUS: v["ru.syscall_rtt_us"], Parallel: cores},
		{Track: "jobs", Layer: "cvm", What: "guest instructions", Count: v["cvm.steps"], UnitUS: ratio(1, v["cvm.minstr_per_s"]), Parallel: cores},
		{Track: "jobs", Layer: "ckpt", What: "vacate: snapshot + encode", Count: v["ru.vacates"], UnitUS: v["cvm.snapshot_us"] + encodeUS, Parallel: cores},
		{Track: "jobs", Layer: "wire", What: "vacate: ship blob home", Count: v["ru.vacates"], UnitUS: v["wire.big_frame_ms_per_mb"] * 1000 * blobMB, Parallel: cores},
		{Track: "jobs", Layer: "ckpt", What: "vacate: decode + store put", Count: v["ru.vacates"], UnitUS: decodeUS + v["ckpt.store_put_us"], Parallel: cores},
	}
	track := map[string]float64{}
	out := rows[:0]
	for _, row := range rows {
		if row.Count == 0 || row.UnitUS <= 0 {
			continue
		}
		row.Seconds = row.Count * row.UnitUS / 1e6 / row.Parallel
		row.Share = ratio(row.Seconds, wall)
		track[row.Track] += row.Seconds
		out = append(out, row)
	}
	if rest := v["coordinator.cycle_busy_s"] - track["cycle"]; rest > 0 {
		out = append(out, budgetRow{
			Track: "cycle", Layer: "coordinator", What: "rest of Cycle (not modelled)", Count: v["coordinator.cycles"],
			UnitUS: ratio(rest*1e6, v["coordinator.cycles"]), Parallel: 1, Seconds: rest, Share: ratio(rest, wall),
		})
	}
	return out, ratio(math.Max(track["cycle"], track["jobs"]), wall)
}

func printLayerTables(w io.Writer, wl *workload, v map[string]float64, rows []budgetRow, self []selfRow, wall float64) {
	fmt.Fprintf(w, "\n%s: layer budget of one round (wall %.3fs; count × probe unit ÷ parallel)\n", wl.name, wall)
	fmt.Fprintf(w, "  %-6s %-12s %-28s %10s %12s %4s %9s %7s\n", "track", "layer", "step", "count", "unit_us", "par", "seconds", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-6s %-12s %-28s %10.0f %12.2f %4.0f %9.4f %6.1f%%\n",
			row.Track, row.Layer, row.What, row.Count, row.UnitUS, row.Parallel, row.Seconds, 100*row.Share)
	}
	var parts []string
	for _, layer := range budgetLayers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", layer, 100*v["budget."+layer+"_share"]))
	}
	fmt.Fprintf(w, "  by layer: %s\n  budget.coverage = %.3f (longer track, modelled rows ÷ wall)\n", strings.Join(parts, ", "), v["budget.coverage"])
	fmt.Fprintf(w, "%s: self time by span (traced rounds; span minus the part its children cover)\n", wl.name)
	fmt.Fprintf(w, "  %-16s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, row := range self {
		fmt.Fprintf(w, "  %-16s %8d %12.2f %12.2f\n", row.Name, row.Count, row.TotalMS, row.SelfMS)
	}
	paper := cost.Paper()
	fmt.Fprintf(w, "%s: cost model (internal/cost, §3.1) against this machine\n", wl.name)
	fmt.Fprintf(w, "  remote syscall: measured %.1f us / paper %.0f us = %.5f\n",
		v["ru.syscall_rtt_us"], us(paper.RemoteSyscall), v["cost.syscall_ratio"])
	fmt.Fprintf(w, "  checkpoint transfer: measured %.1f (encode, %.0f-byte blob) + %.1f (wire, 1 MiB frame) ms/MB / paper %.0f ms/MB = %.5f\n",
		v["ckpt.encode_ms_per_mb"], v["ckpt.blob_bytes"], v["wire.big_frame_ms_per_mb"], ms(paper.PlacePerMB), v["cost.transfer_ratio"])
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []span      `json:"spans"`
	SelfTime []selfRow   `json:"self_time"`
	Budget   []budgetRow `json:"budget"`
	// Program summarises the program's own always-on spans
	// (trace.Default) still retained at exit, by name.
	Program []selfRow `json:"program_spans"`
}

func writeTrace(path string, w *workload, opts runOptions, spans []span, self []selfRow, rows []budgetRow) error {
	byName := make(map[string]*selfRow)
	for _, sp := range trace.Default.Snapshot() {
		row := byName[sp.Name]
		if row == nil {
			row = &selfRow{Name: sp.Name}
			byName[sp.Name] = row
		}
		row.Count++
		row.TotalMS += ms(sp.Duration())
	}
	file := traceFile{Workload: w.name, Seed: opts.seed, Spans: spans, SelfTime: self, Budget: rows}
	for _, row := range byName {
		file.Program = append(file.Program, *row)
	}
	sort.Slice(file.Program, func(i, j int) bool { return file.Program[i].Name < file.Program[j].Name })
	data, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// viewsOf converts the coordinator's pool table into the decision
// pipeline's input, as Coordinator.Cycle does.
func viewsOf(p *pool) []policy.StationView {
	infos := p.coord.Stations()
	views := make([]policy.StationView, 0, len(infos))
	for _, s := range infos {
		v := policy.StationView{
			Name: s.Name, State: s.State, WaitingJobs: s.WaitingJobs, HeldMachines: s.RunningJobs,
			ForeignJob: s.ForeignJob, DiskFree: s.DiskFreeBytes,
		}
		if i := strings.LastIndex(s.ForeignJob, "/"); i > 0 {
			v.ForeignOwner = s.ForeignJob[:i]
		}
		views = append(views, v)
	}
	return views
}
