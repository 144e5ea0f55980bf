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

	"condor/internal/avail"
	"condor/internal/cost"
	"condor/internal/decision"
	"condor/internal/policy"
	"condor/internal/updown"
	"condor/internal/workload"
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

// Config parameterizes a simulation run.
type Config struct {
	// Machines is the pool size (paper: 23).
	Machines int
	// Start is the beginning of the observation window (default: Monday
	// 1987-11-02, the month before the TR was published).
	Start time.Time
	// Days is the window length (paper: one month = 30 days).
	Days int
	// DrainDays allows jobs still in the system at window end to finish
	// (arrivals stop at the window end; metrics series cover the window).
	DrainDays int
	// Seed makes the run reproducible.
	Seed int64

	// PollInterval is the coordinator cycle (paper: 2 minutes).
	PollInterval time.Duration
	// SuspendGrace is the §4 grace period (paper: 5 minutes).
	SuspendGrace time.Duration
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
	// UpDown configures fairness, likewise as written (see updown.Config).
	UpDown updown.Config

	// Cost is the §3.1 cost model; zero value = cost.Paper().
	Cost cost.Model

	// Workload overrides the job population; zero value = Table 1.
	Workload workload.Config

	// Classes overrides the machine availability classes.
	Classes []avail.Class

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
		Machines:     23,
		Start:        time.Date(1987, time.November, 2, 0, 0, 0, 0, time.UTC),
		Days:         30,
		DrainDays:    10,
		Seed:         1987,
		PollInterval: 2 * time.Minute,
		SuspendGrace: 5 * time.Minute,
		Vacate:       VacateSuspendFirst,
		Policy:       policy.DefaultConfig(),
		UpDown:       updown.DefaultConfig(),
		Cost:         cost.Paper(),
	}
}

func (c *Config) sanitize() {
	if c.Machines <= 0 {
		c.Machines = 23
	}
	if c.Start.IsZero() {
		c.Start = time.Date(1987, time.November, 2, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.DrainDays < 0 {
		c.DrainDays = 0
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Minute
	}
	if c.SuspendGrace <= 0 {
		c.SuspendGrace = 5 * time.Minute
	}
	if c.Vacate == 0 {
		c.Vacate = VacateSuspendFirst
	}
	if c.Cost.PlacePerMB == 0 {
		c.Cost = cost.Paper()
	}
	if c.CrashMTBF > 0 && c.CrashRepair <= 0 {
		c.CrashRepair = time.Hour
	}
	if c.Workload.Start.IsZero() {
		c.Workload.Start = c.Start
	}
	if c.Workload.End.IsZero() {
		c.Workload.End = c.Start.Add(time.Duration(c.Days) * 24 * time.Hour)
	}
}
