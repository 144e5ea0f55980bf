// Package policy holds Condor's capacity-allocation logic as pure
// functions over snapshots of pool state. Both the real coordinator
// daemon and the month-scale simulator call into it, so the experiments
// measure exactly the code that runs in production — only the substrate
// differs.
//
// One decision cycle corresponds to one coordinator poll (every 2 minutes
// in the paper). Per cycle a Policy:
//
//  1. Filters the machines that may serve through the standard predicates
//     (idle, sufficient disk §4, healthy, reservation §5.3).
//  2. Ranks the stations that have background jobs waiting by its one
//     comparison — the one stage policies differ in. Every comparison is
//     handed the Up-Down table (*updown.Table, the pool's fairness
//     memory) and reads as much of it as it wants: the indexes (updown),
//     only the registration order (fifo), or the indexes as a tie-break
//     (busiest-first).
//  3. Grants admitted machines, ordered by Config.Placement, to
//     requesters in rank order, capped by MaxGrantsPerCycle — the paper
//     places a single job every two minutes to spread placement cost
//     (§4).
//  4. If demand remains and no idle machine exists, preempts the foreign
//     job of the lowest-priority holder that the best unserved requester
//     strictly outranks under the same comparison (§2.4).
//
// Policies are selected by name from a registry (registry.go). The
// "updown" policy is the paper's algorithm, pinned byte-for-byte by the
// golden fixtures under testdata/.
package policy

import (
	"time"

	"condor/internal/proto"
)

// StationView is the per-station state a decision cycle sees.
type StationView struct {
	Name  string
	State proto.StationState
	// WaitingJobs counts queued jobs wanting remote capacity.
	WaitingJobs int
	// HeldMachines is how many machines this station's jobs occupy now.
	HeldMachines int
	// ForeignJob/ForeignOwner describe the foreign job running here.
	ForeignJob   string
	ForeignOwner string
	// DiskFree is free checkpoint/executable space on this station.
	DiskFree int64
	// IdleStreak is how long the station has currently been idle.
	IdleStreak time.Duration
	// AvgIdleLen is the station's historic mean idle-interval length,
	// used by the availability-history placement strategy (§5.1).
	AvgIdleLen time.Duration
	// ReservedFor, when non-empty, restricts grants of this machine to
	// the named station (§5.3 reservations).
	ReservedFor string
	// Health is the station's graded health. The coordinator sets it on
	// every station it could reach; zero means ungraded (the simulator,
	// old fixtures), which every stage treats as eligible.
	Health proto.StationHealth
}

// PlacementStrategy selects which idle machine to hand out first.
type PlacementStrategy int

// Placement strategies.
const (
	// PlaceFirstFit grants idle machines in stable name order.
	PlaceFirstFit PlacementStrategy = iota + 1
	// PlaceHistory prefers machines with long availability history —
	// the §5.1 proposal: stations with long past idle intervals tend to
	// stay idle, so long jobs suffer fewer preemptions there.
	PlaceHistory
)

// Config tunes a decision cycle.
type Config struct {
	// Name selects the registered policy ("" = updown). The coordinator
	// and simulator resolve it through New; a Policy's own Decide
	// ignores it.
	Name string
	// MaxGrantsPerCycle caps placements per cycle (default 1, per §4).
	MaxGrantsPerCycle int
	// MaxPreemptsPerCycle caps preemptions per cycle (default 1; 0 in a
	// Config that sets any other field turns preemption off).
	MaxPreemptsPerCycle int
	// MinDiskBytes disqualifies execution sites with less free space.
	MinDiskBytes int64
	// Placement selects the idle-machine ordering.
	Placement PlacementStrategy
	// AllowBurstPerStation lifts the one-grant-per-requester-per-cycle
	// rule, letting one station place several jobs in the same cycle —
	// the behaviour §4 warns about ("the performance of the local
	// machine is severely degraded if all jobs are placed at the same
	// time"). Exists for the A2 ablation.
	AllowBurstPerStation bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MaxGrantsPerCycle:   1,
		MaxPreemptsPerCycle: 1,
		MinDiskBytes:        0,
		Placement:           PlaceFirstFit,
	}
}

// sanitize resolves the Config a caller wrote into the one a cycle runs
// under. It is the only copy of this rule: the coordinator and the
// simulator hand their Config to Decide untouched, so one spelling means
// the same cycle on both substrates.
//
// A Config that sets nothing but Name is that policy at DefaultConfig
// (one grant and one preemption per cycle). A Config that sets anything
// else keeps every field it set and defaults only what has no usable
// zero: there MaxPreemptsPerCycle 0 means preemption off.
func (c *Config) sanitize() {
	if *c == (Config{Name: c.Name}) {
		name := c.Name
		*c = DefaultConfig()
		c.Name = name
	}
	if c.MaxGrantsPerCycle <= 0 {
		c.MaxGrantsPerCycle = 1
	}
	if c.MaxPreemptsPerCycle < 0 {
		c.MaxPreemptsPerCycle = 0
	}
	if c.Placement == 0 {
		c.Placement = PlaceFirstFit
	}
}

// Grant assigns the named idle machine to the requesting station.
type Grant struct {
	Requester string
	Exec      string
}

// Preempt orders the foreign job on Exec vacated so Beneficiary can be
// served on a later cycle (once the checkpoint completes).
type Preempt struct {
	Exec        string
	JobID       string
	Victim      string // the job's home station
	Beneficiary string
}

// Decision is one cycle's actions.
type Decision struct {
	Grants   []Grant
	Preempts []Preempt
}
