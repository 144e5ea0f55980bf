package main

import (
	"runtime"
	"syscall"
	"time"

	"condor/internal/accounting"
	"condor/internal/coordinator"
	"condor/internal/telemetry"
	"condor/internal/trace"
)

// The process-wide series the program already exports; registration is
// idempotent, so asking for a name returns the program's own series.
var (
	hPollSeconds    = telemetry.NewHistogram("condor_coordinator_poll_seconds", "", nil)
	hSyscallSeconds = telemetry.NewHistogram("condor_ru_shadow_syscall_seconds", "", nil)
	cWireBytesSent  = telemetry.NewCounter("condor_wire_bytes_sent_total", "")
	cWireFramesSent = telemetry.NewCounter("condor_wire_frames_sent_total", "")
)

// counters is one reading of everything the program counts about itself:
// Coordinator.Stats (journal and wire-pool activity included),
// Starter.Stats, the process ledger, the telemetry registry, the event
// logs, and the decision and trace rings. Layer counts for a round are
// the difference of two readings.
type counters struct {
	coord     coordinator.Stats
	ledger    accounting.JobTotals
	completed uint64 // starters: jobs run to completion
	vacated   uint64 // starters: jobs checkpointed off
	pollSum   float64
	pollCount uint64
	sysSum    float64
	sysCount  uint64
	wireBytes uint64
	frames    uint64
	events    uint64
	decisions uint64
	spans     uint64
	dropped   uint64
	mallocs   uint64
	cpu       time.Duration // process user+system time
}

func readCounters(p *pool) counters {
	c := counters{
		coord:     p.coord.Stats(),
		pollSum:   hPollSeconds.Sum(),
		pollCount: hPollSeconds.Count(),
		sysSum:    hSyscallSeconds.Sum(),
		sysCount:  hSyscallSeconds.Count(),
		wireBytes: cWireBytesSent.Value(),
		frames:    cWireFramesSent.Value(),
		events:    p.coord.Events().Total(),
		decisions: p.decisions.Total(),
		spans:     trace.Default.Total(),
		dropped:   trace.Default.Dropped(),
	}
	for _, row := range accounting.Default.Snapshot().Stations {
		t := row.JobTotals
		c.ledger.RemoteSteps += t.RemoteSteps
		c.ledger.RemoteNanos += t.RemoteNanos
		c.ledger.Syscalls += t.Syscalls
		c.ledger.SyscallBytes += t.SyscallBytes
		c.ledger.SupportNanos += t.SupportNanos
		c.ledger.Checkpoints += t.Checkpoints
		c.ledger.CkptBytes += t.CkptBytes
		c.ledger.BadputSteps += t.BadputSteps
		c.ledger.Placements += t.Placements
	}
	for _, st := range p.stations {
		s := st.Starter().Stats()
		c.completed += s.Completed
		c.vacated += s.Vacated
		c.events += st.Events().Total()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs = m.Mallocs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// since returns the per-layer counts between two readings, named as in
// BENCHMARK.json.
func (c counters) since(b counters) map[string]float64 {
	polls := float64(c.pollCount - b.pollCount)
	cycles := float64(c.coord.Cycles - b.coord.Cycles)
	grants := float64(c.coord.Grants - b.coord.Grants)
	used := float64(c.coord.GrantsUsed - b.coord.GrantsUsed)
	sys := float64(c.sysCount - b.sysCount)
	remote := float64(c.ledger.RemoteNanos - b.ledger.RemoteNanos)
	support := float64(c.ledger.SupportNanos - b.ledger.SupportNanos)
	return map[string]float64{
		"wire.dials":                   float64(c.coord.Dials - b.coord.Dials),
		"wire.reuses":                  float64(c.coord.Reuses - b.coord.Reuses),
		"wire.retries":                 float64(c.coord.Retries - b.coord.Retries),
		"wire.bytes_sent":              float64(c.wireBytes - b.wireBytes),
		"wire.frames_sent":             float64(c.frames - b.frames),
		"coordinator.cycles":           cycles,
		"coordinator.polls":            polls,
		"coordinator.poll_rtt_mean_us": ratio((c.pollSum-b.pollSum)*1e6, polls),
		"coordinator.poll_fails":       float64(c.coord.PollFails - b.coord.PollFails),
		"coordinator.grants":           grants,
		"coordinator.grants_used":      used,
		"coordinator.grants_denied":    float64(c.coord.GrantsDenied - b.coord.GrantsDenied),
		"coordinator.grant_use_ratio":  ratio(used, grants),
		"coordinator.grants_per_cycle": ratio(grants, cycles),
		"journal.appends":              float64(c.coord.JournalAppends - b.coord.JournalAppends),
		"journal.log_bytes":            float64(c.coord.JournalLogBytes),
		"schedd.placements":            float64(c.ledger.Placements - b.ledger.Placements),
		"ru.syscalls":                  float64(c.ledger.Syscalls - b.ledger.Syscalls),
		"ru.syscall_bytes":             float64(c.ledger.SyscallBytes - b.ledger.SyscallBytes),
		"ru.syscall_rtt_live_us":       ratio((c.sysSum-b.sysSum)*1e6, sys),
		"ru.support_s":                 support / 1e9,
		"ru.exec_s":                    remote / 1e9,
		"ru.vacates":                   float64(c.vacated - b.vacated),
		"ru.completed":                 float64(c.completed - b.completed),
		"ckpt.checkpoints":             float64(c.ledger.Checkpoints - b.ledger.Checkpoints),
		"ckpt.bytes_home":              float64(c.ledger.CkptBytes - b.ledger.CkptBytes),
		"cvm.steps":                    float64(c.ledger.RemoteSteps - b.ledger.RemoteSteps),
		"cvm.badput_steps":             float64(c.ledger.BadputSteps - b.ledger.BadputSteps),
		"accounting.leverage":          ratio(remote, support),
		"decision.records":             float64(c.decisions - b.decisions),
		"trace.spans":                  float64(c.spans - b.spans),
		"trace.dropped":                float64(c.dropped - b.dropped),
		"eventlog.events":              float64(c.events - b.events),
		"allocs":                       float64(c.mallocs - b.mallocs),
		"cpu_s":                        (c.cpu - b.cpu).Seconds(),
	}
}
