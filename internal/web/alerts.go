package web

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"condor/internal/telemetry"
)

// Declarative alert rules, evaluated server-side on every aggregation
// tick. A rule is one threshold over one field of the aggregated pool
// snapshot:
//
//	<name>: <field> <op> <value> [for <duration>]
//
// e.g.
//
//	degraded-mode: degraded > 0
//	quarantine-spike: quarantined > 2
//	stale-cycle: cycle_lag > 3
//	journal-errors: journal_errors > 0 for 10s
//
// Ops are > >= < <= == !=. Values are plain numbers; duration-valued
// fields (cycle_age) compare in seconds, so "cycle_age > 360" also
// works — but cycle_lag (cycle age divided by the poll interval the
// coordinator reports) is the portable spelling of "the cycle is 3×
// overdue".
// The optional "for" clause debounces: the condition must hold
// continuously that long before the rule fires. Transitions publish
// firing/resolved events on the bus (kind "alert-firing" /
// "alert-resolved"), tick the condor_web_alert_transitions_total
// counter, and move the condor_web_alerts_firing gauge; the dashboard
// renders firing rules as a banner.

// Alert telemetry.
var (
	mAlertsFiring = telemetry.NewGauge("condor_web_alerts_firing",
		"Alert rules currently in the firing state.")
	mAlertTransitions = telemetry.NewCounterVec("condor_web_alert_transitions_total",
		"Alert rule state transitions (fired + resolved), by rule name.", "rule")
)

// Rule is one parsed alert rule.
type Rule struct {
	Name  string        `json:"name"`
	Field string        `json:"field"`
	Op    string        `json:"op"`
	Value float64       `json:"value"`
	For   time.Duration `json:"for,omitempty"`
}

// Expr renders the rule's condition back as text.
func (r Rule) Expr() string {
	s := fmt.Sprintf("%s %s %g", r.Field, r.Op, r.Value)
	if r.For > 0 {
		s += " for " + r.For.String()
	}
	return s
}

// DefaultRules are the rules condor-web evaluates when none are
// configured: the conditions §5-era operators actually paged on.
var DefaultRules = []string{
	"degraded-mode: degraded > 0",
	"quarantine-spike: quarantined > 2",
	"stale-cycle: cycle_lag > 3",
	"journal-errors: journal_errors > 0",
	"coordinator-unready: unready > 0 for 5s",
}

// ParseRule parses "name: field op value [for duration]".
func ParseRule(s string) (Rule, error) {
	var r Rule
	name, expr, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("web: rule %q: want \"name: field op value\"", s)
	}
	r.Name = strings.TrimSpace(name)
	if r.Name == "" {
		return r, fmt.Errorf("web: rule %q: empty name", s)
	}
	fields := strings.Fields(expr)
	if len(fields) != 3 && len(fields) != 5 {
		return r, fmt.Errorf("web: rule %q: want \"field op value [for duration]\"", s)
	}
	r.Field = fields[0]
	r.Op = fields[1]
	switch r.Op {
	case ">", ">=", "<", "<=", "==", "!=":
	default:
		return r, fmt.Errorf("web: rule %q: unknown op %q", s, r.Op)
	}
	v, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return r, fmt.Errorf("web: rule %q: bad value %q", s, fields[2])
	}
	r.Value = v
	if len(fields) == 5 {
		if fields[3] != "for" {
			return r, fmt.Errorf("web: rule %q: want \"for <duration>\", got %q", s, fields[3])
		}
		d, err := time.ParseDuration(fields[4])
		if err != nil {
			return r, fmt.Errorf("web: rule %q: bad duration %q", s, fields[4])
		}
		r.For = d
	}
	return r, nil
}

// ParseRules parses a rule list, rejecting duplicate names.
func ParseRules(specs []string) ([]Rule, error) {
	rules := make([]Rule, 0, len(specs))
	seen := map[string]bool{}
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("web: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rules = append(rules, r)
	}
	return rules, nil
}

// KnownRuleFields is every field name Refresh publishes for rule
// evaluation — the authoritative vocabulary a rule may reference. Eval
// scores absent fields as 0, so before field validation a typo like
// "qurantined > 2" parsed fine and then silently never fired; now it is
// rejected at startup.
var KnownRuleFields = []string{
	"claimed", "coord_unreachable", "cycle_age", "cycle_lag", "cycles",
	"degraded", "grants", "healthy", "idle", "jobs", "journal_errors",
	"owner", "preempts", "quarantined", "running", "stations",
	"suspect", "suspended", "unready", "utilization", "waiting",
}

// ValidateRuleFields rejects rules referencing fields the aggregator
// never publishes, naming the offending rule so the operator can fix
// the flag rather than discover a silent never-firing alert.
func ValidateRuleFields(rules []Rule) error {
	known := make(map[string]bool, len(KnownRuleFields))
	for _, f := range KnownRuleFields {
		known[f] = true
	}
	for _, r := range rules {
		if !known[r.Field] {
			return fmt.Errorf("web: rule %q: unknown field %q (known fields: %s)",
				r.Name+": "+r.Expr(), r.Field, strings.Join(KnownRuleFields, ", "))
		}
	}
	return nil
}

// holds evaluates the rule's comparison.
func (r Rule) holds(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Value
	case ">=":
		return v >= r.Value
	case "<":
		return v < r.Value
	case "<=":
		return v <= r.Value
	case "==":
		return v == r.Value
	case "!=":
		return v != r.Value
	}
	return false
}

// AlertStatus is one rule's current state, as served on /api/overview.
type AlertStatus struct {
	Rule   string `json:"rule"`
	Expr   string `json:"expr"`
	Firing bool   `json:"firing"`
	// Value is the field's value at the last evaluation (absent fields
	// evaluate as 0).
	Value float64 `json:"value"`
	// Since is when the rule entered its current firing state (zero
	// while it has never fired).
	Since time.Time `json:"since,omitempty"`
}

// Alerts evaluates a rule set against successive snapshots.
type Alerts struct {
	rules []Rule
	bus   *telemetry.Bus

	// Per-rule evaluation state, parallel to rules.
	firing     []bool
	since      []time.Time
	holdsSince []time.Time
	counters   []*telemetry.Counter
}

// NewAlerts compiles a rule set publishing transitions onto bus.
func NewAlerts(rules []Rule, bus *telemetry.Bus) *Alerts {
	a := &Alerts{
		rules:      rules,
		bus:        bus,
		firing:     make([]bool, len(rules)),
		since:      make([]time.Time, len(rules)),
		holdsSince: make([]time.Time, len(rules)),
		counters:   make([]*telemetry.Counter, len(rules)),
	}
	for i, r := range rules {
		a.counters[i] = mAlertTransitions.With(r.Name)
	}
	return a
}

// Eval applies one snapshot's field values, returning every rule's
// status and publishing firing/resolved transitions.
func (a *Alerts) Eval(now time.Time, fields map[string]float64) []AlertStatus {
	out := make([]AlertStatus, len(a.rules))
	nFiring := 0
	for i, r := range a.rules {
		v := fields[r.Field]
		holds := r.holds(v)
		if holds {
			if a.holdsSince[i].IsZero() {
				a.holdsSince[i] = now
			}
		} else {
			a.holdsSince[i] = time.Time{}
		}
		want := holds && now.Sub(a.holdsSince[i]) >= r.For
		if want != a.firing[i] {
			a.firing[i] = want
			a.since[i] = now
			a.counters[i].Inc()
			kind := "alert-resolved"
			if want {
				kind = "alert-firing"
			}
			a.bus.Publish(telemetry.BusEvent{
				Source: "web", Kind: kind,
				Detail: fmt.Sprintf("%s: %s (value %g)", r.Name, r.Expr(), v),
			})
		}
		if a.firing[i] {
			nFiring++
		}
		out[i] = AlertStatus{
			Rule: r.Name, Expr: r.Expr(), Firing: a.firing[i],
			Value: v, Since: a.since[i],
		}
	}
	mAlertsFiring.Set(int64(nFiring))
	sort.SliceStable(out, func(i, j int) bool {
		// Firing rules first, so the banner reads top-down.
		if out[i].Firing != out[j].Firing {
			return out[i].Firing
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
