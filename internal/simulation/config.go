// Package simulation reproduces the paper's one-month evaluation: 23
// workstations, five users, the coordinator's 2-minute poll cycle, the
// Up-Down algorithm, suspend-then-vacate preemption and the §3.1 cost
// model — at event granularity on a virtual clock.
//
// The scheduling decisions are made by the same internal/policy and
// internal/updown code that drives the real daemons; the simulator only
// substitutes the substrate (virtual machines and scripted owners for
// real ones). See DESIGN.md §2 for the substitution argument.
package simulation

import (
	"time"

	"condor/internal/decision"
	"condor/internal/policy"
)

// VacatePolicy mirrors ru.VacatePolicy for the simulator.
type VacatePolicy int

// Vacate policies.
const (
	// VacateSuspendFirst suspends for the grace period, then checkpoints
	// (the paper's deployed strategy).
	VacateSuspendFirst VacatePolicy = iota + 1
	// VacateKillImmediately kills on owner return, losing work since the
	// last periodic checkpoint (§4's proposal).
	VacateKillImmediately
)

// The paper's operating point, fixed: no run has used other values.
const (
	pollInterval = 2 * time.Minute // the coordinator cycle (§2.1)
	suspendGrace = 5 * time.Minute // the §4 grace period
)

// windowStart is where every observation window begins: Monday
// 1987-11-02, the month before the TR was published.
var windowStart = time.Date(1987, time.November, 2, 0, 0, 0, 0, time.UTC)

// Config parameterizes a simulation run.
type Config struct {
	// Machines is the pool size (paper: 23).
	Machines int
	// Days is the window length (paper: one month = 30 days).
	Days int
	// DrainDays allows jobs still in the system at window end to finish
	// (arrivals stop at the window end; metrics series cover the window).
	DrainDays int
	// Seed makes the run reproducible.
	Seed int64

	// Vacate selects the owner-return policy.
	Vacate VacatePolicy
	// PeriodicCheckpoint, when positive, checkpoints running jobs at this
	// interval (used with VacateKillImmediately; A5 ablation).
	PeriodicCheckpoint time.Duration

	// Policy selects and tunes allocation. It is handed to the pipeline
	// as written — policy.Config documents what a zero or partly filled
	// value means, the same here as in the coordinator. Policy.Name picks
	// the registered policy ("" = updown), so any policy in the registry
	// gets a month-scale A/B run.
	Policy policy.Config

	// Audit, when non-nil, receives a decision audit for every poll
	// cycle (internal/decision), exactly as the live coordinator records
	// them — `condor-sim -explain` uses it to show where two policies'
	// grant decisions diverge on the same workload. Nil costs nothing.
	Audit *decision.Recorder

	// CrashMTBF, when positive, makes machines crash (shut down) with
	// exponentially distributed uptimes of this mean. A crash loses the
	// resident foreign job's progress back to its last checkpoint; the
	// paper's recovery guarantee ("programs are resumed from their most
	// recent checkpoints" after "the shutdown of remote workstations")
	// must still complete every job.
	CrashMTBF time.Duration
	// CrashRepair is the mean down time after a crash (default 1 hour).
	CrashRepair time.Duration
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Machines:  23,
		Days:      30,
		DrainDays: 10,
		Seed:      1987,
		Vacate:    VacateSuspendFirst,
		Policy:    policy.DefaultConfig(),
	}
}

func (c *Config) sanitize() {
	if c.Machines <= 0 {
		c.Machines = 23
	}
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.DrainDays < 0 {
		c.DrainDays = 0
	}
	if c.Vacate == 0 {
		c.Vacate = VacateSuspendFirst
	}
	if c.CrashMTBF > 0 && c.CrashRepair <= 0 {
		c.CrashRepair = time.Hour
	}
}
