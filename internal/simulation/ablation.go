package simulation

import (
	"fmt"
	"time"

	"condor/internal/policy"
)

// Ablation is one of DESIGN.md's design-choice comparisons A1–A5: the
// paper's choice, which is the base Config as given, against an
// alternative that changes only the field the comparison is about.
type Ablation struct {
	Name   string    // condor-sim -ablation NAME
	Labels [2]string // the paper's arm, then the alternative's
	alter  func(*Config)
}

// ablations is the one definition of A1–A5, in DESIGN.md's order.
var ablations = []Ablation{
	{"vacate", [2]string{"suspend-then-vacate (paper)", "kill-immediately + 30m periodic ckpt (§4)"}, func(c *Config) {
		c.Vacate = VacateKillImmediately
		c.PeriodicCheckpoint = 30 * time.Minute
	}},
	{"pacing", [2]string{"paced placements (paper §4)", "unpaced bursts"}, func(c *Config) {
		c.Policy.MaxGrantsPerCycle = 16
		c.Policy.AllowBurstPerStation = true
	}},
	{"updown", [2]string{"Up-Down (paper)", "FIFO grants"}, func(c *Config) { c.Policy.Name = "fifo" }},
	{"history", [2]string{"first-fit placement (paper)", "availability-history placement (§5.1)"},
		func(c *Config) { c.Policy.Placement = policy.PlaceHistory }},
	{"periodic", [2]string{"checkpoint on vacate only (paper)", "+ hourly periodic checkpoints (§4)"},
		func(c *Config) { c.PeriodicCheckpoint = time.Hour }},
}

// AblationNames lists the ablations in DESIGN.md's order.
func AblationNames() []string {
	names := make([]string, len(ablations))
	for i, a := range ablations {
		names[i] = a.Name
	}
	return names
}

// FindAblation returns the named ablation.
func FindAblation(name string) (Ablation, error) {
	for _, a := range ablations {
		if a.Name == name {
			return a, nil
		}
	}
	return Ablation{}, fmt.Errorf("unknown ablation %q", name)
}

// Configs returns the two arms' Configs, in Labels' order: base, and
// base with the alternative applied.
func (a Ablation) Configs(base Config) [2]Config {
	alt := base
	a.alter(&alt)
	return [2]Config{base, alt}
}
