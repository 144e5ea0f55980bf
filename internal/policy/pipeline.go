// The scheduling pipeline. One decision cycle flows through four stages:
//
//	Predicates  filter which machines may serve (idle, disk, health,
//	            reservation match) — the same chain for every policy.
//	Ranker      orders the requesting stations best-first (Up-Down,
//	            FIFO, busiest-first, backfill). The one stage a policy
//	            chooses.
//	Placement   orders the admitted machines best-first, selected by
//	            Config.Placement (first-fit, availability-history).
//	Preemption  the paper's §2.4 rule: evict the worst holder the best
//	            unserved requester strictly outranks.
//
// A Policy is a name, the standard predicate chain and a Ranker; the
// registry (registry.go) maps policy names to rankers so the coordinator
// and simulator select one by configuration.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"condor/internal/decision"
	"condor/internal/proto"
	"condor/internal/updown"
)

// Pool is the read-only cluster snapshot a pipeline stage sees.
type Pool struct {
	Stations []StationView
	byName   map[string]StationView
}

func newPool(stations []StationView) *Pool {
	byName := make(map[string]StationView, len(stations))
	for _, s := range stations {
		byName[s.Name] = s
	}
	return &Pool{Stations: stations, byName: byName}
}

// Predicate decides whether a machine may serve a requester this cycle.
type Predicate interface {
	Name() string
	// Admit is called twice per machine: once with req == "" while the
	// candidate set is built (admit when the machine could serve at
	// least one requester) and again with the concrete requester during
	// placement. Requester-independent predicates ignore req.
	Admit(m *StationView, req string, cfg *Config) bool
	// Explain articulates the comparison Admit failed, both sides as
	// short strings — the audit's threshold-vs-observed detail. Only
	// called on the rejection path, after Admit returned false.
	Explain(m *StationView, req string, cfg *Config) (threshold, observed string)
}

// predicates is the filter chain every policy runs, in order.
var predicates = []Predicate{IdlePredicate{}, MinDiskPredicate{}, HealthPredicate{}, ReservationPredicate{}}

// Ranker orders the requesting stations best-first. table is the pool's
// Up-Down fairness memory; a ranker reads as much of it as its ordering
// needs and never updates it.
type Ranker interface {
	// Rank orders wanting best-first. wanting arrives in sorted-name
	// order; implementations must not mutate it.
	Rank(wanting []string, pool *Pool, table *updown.Table, cfg *Config) []string
	// Better reports whether a strictly outranks b — the relation every
	// preemption is judged by.
	Better(a, b string, pool *Pool, table *updown.Table, cfg *Config) bool
}

// Policy is a named Ranker behind the standard predicate chain.
type Policy struct {
	name    string
	Ranker  Ranker
	simOnly string
	met     *policyMetrics
}

// Name returns the registry name the policy was built under.
func (p *Policy) Name() string { return p.name }

// SimulatedOnly names the StationView field the policy ranks by that
// only the simulator fills, or "" when the policy schedules a live pool
// exactly as it schedules a simulated one. The coordinator refuses a
// simulated-only policy at startup rather than run it blind.
func (p *Policy) SimulatedOnly() string { return p.simOnly }

// admitIdx runs the predicate chain and returns the index of the first
// rejecting predicate, or -1 when every predicate admits — so the audit
// and the per-predicate deny counters know *which* gate closed without
// a second pass.
func admitIdx(m *StationView, req string, cfg *Config) int {
	for i, pred := range predicates {
		if !pred.Admit(m, req, cfg) {
			return i
		}
	}
	return -1
}

// rejection assembles the audit record for predicate idx rejecting m.
// Only called on the (cold) rejection path with a live builder.
func rejection(m *StationView, req string, idx int, cfg *Config) decision.Rejection {
	r := decision.Rejection{Station: m.Name, Requester: req, Predicate: predicates[idx].Name()}
	r.Threshold, r.Observed = predicates[idx].Explain(m, req, cfg)
	return r
}

// healthy is the one health gate, live and simulated: a station graded
// non-healthy neither asks for capacity (no grants, no preemptions on
// its behalf), nor donates its machine (HealthPredicate), nor has its
// running foreign job preempted (pickVictim) — it keeps what it has,
// nothing more. Zero Health (old fixtures, the simulator) means no
// grading — eligible.
func healthy(s *StationView) bool {
	return s.Health == 0 || s.Health == proto.HealthHealthy
}

// Round is one whole allocation round, the part of a coordinator cycle
// the live daemon and the simulator share: charge or credit every
// station in views on the Up-Down table (§2.4), then decide. views is
// every station the substrate could reach, Health set where it grades
// health. frozen skips the index update: a coordinator whose pool is
// degraded must not book an infrastructure failure to its users.
func (p *Policy) Round(views []StationView, table *updown.Table, cfg Config, frozen bool, aud *decision.Builder) Decision {
	if !frozen {
		for i := range views {
			table.Update(views[i].Name, views[i].HeldMachines, views[i].WaitingJobs > 0)
		}
	}
	return p.DecideAudited(views, table, cfg, aud)
}

// Decide runs one allocation cycle through the pipeline. It never
// mutates its inputs. The control flow is exactly the seed algorithm's:
// rank requesters, grant admitted machines in placement order with
// per-station pacing (§4), then — only when no unreserved idle capacity
// remains — evict outranked foreign jobs (§2.4).
func (p *Policy) Decide(stations []StationView, table *updown.Table, cfg Config) Decision {
	return p.DecideAudited(stations, table, cfg, nil)
}

// DecideAudited is Decide with an optional decision audit: when aud is
// non-nil, every stage records why it did what it did — which predicate
// rejected each machine (threshold vs observed), each requester's rank
// score and feature breakdown, the placement order, and the preemption
// victim comparisons. The audit is strictly observational: a nil and a
// non-nil builder produce identical Decisions (the conformance suite
// asserts this for every registered policy), and the nil path costs one
// branch per hook — no allocations beyond Decide's own.
func (p *Policy) DecideAudited(stations []StationView, table *updown.Table, cfg Config, aud *decision.Builder) Decision {
	start := time.Now()
	cfg.sanitize()
	pool := newPool(stations)
	aud.Begin(p.name, len(stations))

	// Requesters, best priority first. Stations keep wanting capacity
	// for every waiting job, but receive at most one grant per cycle:
	// placement costs land on the requester's machine (§4), so pacing is
	// per-station as well as global.
	var wanting []string
	for i := range stations {
		if stations[i].WaitingJobs > 0 && healthy(&stations[i]) {
			wanting = append(wanting, stations[i].Name)
		}
	}
	sort.Strings(wanting) // deterministic base order before ranking
	requesters := p.Ranker.Rank(wanting, pool, table, &cfg)
	p.met.requesters.Add(uint64(len(requesters)))
	if aud != nil {
		auditRank(requesters, pool, table, aud)
	}

	// Candidate machines: every predicate must admit, requester-blind.
	// A rejection here applies to every requester; it is what the
	// per-predicate deny counters count and what /decisions reports
	// with an empty requester.
	var candidates []StationView
	for i := range stations {
		if idx := admitIdx(&stations[i], "", &cfg); idx >= 0 {
			p.met.denied[idx].Inc()
			if aud != nil {
				aud.Reject(rejection(&stations[i], "", idx, &cfg))
			}
		} else {
			candidates = append(candidates, stations[i])
		}
	}
	p.met.candidates.Add(uint64(len(candidates)))
	p.met.filtered.Add(uint64(len(stations) - len(candidates)))
	idle := placementOrder(candidates, cfg.Placement)
	if aud != nil {
		aud.Idle(idle)
	}

	var d Decision
	granted := make(map[string]bool, len(requesters))
	waitingLeft := make(map[string]int, len(stations))
	for _, s := range stations {
		waitingLeft[s.Name] = s.WaitingJobs
	}
	// With bursting allowed, keep cycling through the ranked requesters
	// until grants or machines run out.
	for pass := 0; ; pass++ {
		grantedThisPass := false
		for _, req := range requesters {
			if len(d.Grants) >= cfg.MaxGrantsPerCycle || len(idle) == 0 {
				break
			}
			if granted[req] && !cfg.AllowBurstPerStation {
				continue
			}
			if waitingLeft[req] <= 0 {
				continue
			}
			pick := -1
			for i, exec := range idle {
				m := pool.byName[exec]
				if idx := admitIdx(&m, req, &cfg); idx >= 0 {
					// Placement-phase rejection: this machine refused
					// this concrete requester (typically a reservation
					// held for someone else). Audit-only — the deny
					// counters count the requester-blind phase.
					if aud != nil {
						aud.Reject(rejection(&m, req, idx, &cfg))
					}
					continue
				}
				pick = i
				break
			}
			if pick < 0 {
				continue
			}
			exec := idle[pick]
			idle = append(idle[:pick], idle[pick+1:]...)
			granted[req] = true
			waitingLeft[req]--
			grantedThisPass = true
			d.Grants = append(d.Grants, Grant{Requester: req, Exec: exec})
			aud.Grant(req, exec)
		}
		if !cfg.AllowBurstPerStation || !grantedThisPass ||
			len(d.Grants) >= cfg.MaxGrantsPerCycle || len(idle) == 0 {
			break
		}
	}
	if aud != nil {
		for _, req := range requesters {
			if granted[req] {
				continue
			}
			reason := "no admissible idle machine"
			switch {
			case len(d.Grants) >= cfg.MaxGrantsPerCycle:
				reason = "grant cap reached (MaxGrantsPerCycle)"
			case len(candidates) == 0:
				reason = "no candidate machines (all filtered by predicates)"
			case len(idle) == 0:
				reason = "all admitted machines already granted"
			}
			aud.Unserved(req, reason)
		}
	}
	d.Preempts = outrankPreempts(pool, requesters, granted, idle, &cfg, aud,
		func(a, b string) bool { return p.Ranker.Better(a, b, pool, table, &cfg) })
	p.met.grants.Add(uint64(len(d.Grants)))
	p.met.preempts.Add(uint64(len(d.Preempts)))
	p.met.decide.Observe(time.Since(start).Seconds())
	return d
}

// auditRank records each ranked requester with its Up-Down schedule
// index (lower wins) and the station-view features the rankers read —
// the breakdown behind "why is my station ranked there".
func auditRank(requesters []string, pool *Pool, table *updown.Table, aud *decision.Builder) {
	for i, req := range requesters {
		e := decision.RankEntry{Requester: req, Position: i, Score: table.Index(req), HasScore: true}
		m := pool.byName[req]
		e.Features = append(e.Features,
			decision.Feature{Key: "waiting", Value: strconv.Itoa(m.WaitingJobs)},
			decision.Feature{Key: "held", Value: strconv.Itoa(m.HeldMachines)})
		if m.ShortestJob > 0 {
			e.Features = append(e.Features,
				decision.Feature{Key: "shortest-job", Value: m.ShortestJob.String()})
		}
		aud.Requester(e)
	}
}

// ---- Standard predicates -------------------------------------------

// IdlePredicate admits only machines with no owner or foreign activity.
type IdlePredicate struct{}

func (IdlePredicate) Name() string { return "idle" }

// Admit implements Predicate.
func (IdlePredicate) Admit(m *StationView, _ string, _ *Config) bool {
	return m.State == proto.StationIdle
}

// Explain implements Predicate.
func (IdlePredicate) Explain(m *StationView, _ string, _ *Config) (string, string) {
	return "state == idle", "state " + m.State.String()
}

// MinDiskPredicate enforces §4's free-space requirement: a station
// whose disk cannot hold a checkpoint plus executable is unusable.
type MinDiskPredicate struct{}

func (MinDiskPredicate) Name() string { return "min-disk" }

// Admit implements Predicate.
func (MinDiskPredicate) Admit(m *StationView, _ string, cfg *Config) bool {
	return cfg.MinDiskBytes <= 0 || m.DiskFree >= cfg.MinDiskBytes
}

// Explain implements Predicate.
func (MinDiskPredicate) Explain(m *StationView, _ string, cfg *Config) (string, string) {
	return fmt.Sprintf("disk >= %d bytes", cfg.MinDiskBytes),
		fmt.Sprintf("%d bytes free", m.DiskFree)
}

// HealthPredicate blocks grants of machines the health grader marked
// non-healthy (see healthy).
type HealthPredicate struct{}

func (HealthPredicate) Name() string { return "health" }

// Admit implements Predicate.
func (HealthPredicate) Admit(m *StationView, _ string, _ *Config) bool {
	return healthy(m)
}

// Explain implements Predicate.
func (HealthPredicate) Explain(m *StationView, _ string, _ *Config) (string, string) {
	return "health == healthy", "health " + m.Health.String()
}

// ReservationPredicate enforces §5.3 reservations: a reserved machine
// serves only its holder. With no concrete requester it admits — a
// reserved machine is still a candidate for its holder.
type ReservationPredicate struct{}

func (ReservationPredicate) Name() string { return "reservation" }

// Admit implements Predicate.
func (ReservationPredicate) Admit(m *StationView, req string, _ *Config) bool {
	if req == "" {
		return true
	}
	return m.ReservedFor == "" || m.ReservedFor == req
}

// Explain implements Predicate.
func (ReservationPredicate) Explain(m *StationView, req string, _ *Config) (string, string) {
	return "reserved for " + m.ReservedFor, "requester " + req
}

// ---- Placement -----------------------------------------------------

// placementOrder sorts the admitted machines best-first under the
// configured strategy and returns their names. It sorts candidates in
// place (the slice is the cycle's own copy). First-fit is stable name
// order; availability-history (§5.1) puts machines with long past idle
// intervals first — they tend to stay idle, so long jobs suffer fewer
// preemptions there — and falls back to name order on ties.
func placementOrder(candidates []StationView, strategy PlacementStrategy) []string {
	sort.SliceStable(candidates, func(i, j int) bool {
		a, b := &candidates[i], &candidates[j]
		if strategy == PlaceHistory {
			if a.AvgIdleLen != b.AvgIdleLen {
				return a.AvgIdleLen > b.AvgIdleLen
			}
			if a.IdleStreak != b.IdleStreak {
				return a.IdleStreak > b.IdleStreak
			}
		}
		return a.Name < b.Name
	})
	out := make([]string, len(candidates))
	for i := range candidates {
		out[i] = candidates[i].Name
	}
	return out
}

// ---- Preemption ----------------------------------------------------

// outrankPreempts is the paper's §2.4 rule: preempt only when no
// generally-usable idle capacity remains (machines reserved for someone
// else are spoken for, §5.3), evicting for each unserved requester the
// foreign job whose owner has the worst priority among those the
// requester strictly outranks under better. requesters is the ranked
// list, granted marks those served this cycle, leftoverIdle the
// admitted machines not granted.
func outrankPreempts(pool *Pool, requesters []string, granted map[string]bool, leftoverIdle []string,
	cfg *Config, aud *decision.Builder, better func(a, b string) bool) []Preempt {
	if cfg.MaxPreemptsPerCycle == 0 {
		return nil
	}
	for _, exec := range leftoverIdle {
		if pool.byName[exec].ReservedFor == "" {
			return nil
		}
	}
	var out []Preempt
	for _, req := range requesters {
		if len(out) >= cfg.MaxPreemptsPerCycle {
			break
		}
		if granted[req] {
			continue
		}
		aud.BeginPreempt(req)
		victim, ok := pickVictim(pool, req, out, aud, better)
		if !ok {
			aud.PreemptOutcome("", "", "")
			break // best requester can preempt nobody; worse ones cannot either
		}
		aud.PreemptOutcome(victim.Name, victim.ForeignOwner, victim.ForeignJob)
		out = append(out, Preempt{
			Exec:        victim.Name,
			JobID:       victim.ForeignJob,
			Victim:      victim.ForeignOwner,
			Beneficiary: req,
		})
	}
	return out
}

// pickVictim finds the claimed station whose foreign job's owner has
// the worst priority among those the requester strictly outranks,
// skipping stations already being preempted this cycle, the requester's
// own jobs and non-healthy stations (a suspect machine may be too slow
// to answer a vacate order; its job stays until it recovers or dies).
func pickVictim(pool *Pool, requester string, already []Preempt, aud *decision.Builder,
	better func(a, b string) bool) (StationView, bool) {
	busy := make(map[string]bool, len(already))
	for _, p := range already {
		busy[p.Exec] = true
	}
	var victim StationView
	found := false
	for _, s := range pool.Stations {
		if s.State != proto.StationClaimed || s.ForeignJob == "" || busy[s.Name] || !healthy(&s) {
			continue
		}
		if s.ForeignOwner == requester {
			continue // never preempt yourself to serve yourself
		}
		if !better(requester, s.ForeignOwner) {
			aud.PreemptCompared(s.Name, s.ForeignOwner, false)
			continue
		}
		aud.PreemptCompared(s.Name, s.ForeignOwner, true)
		if !found || better(victim.ForeignOwner, s.ForeignOwner) {
			// s's owner is worse than the current victim's owner:
			// prefer evicting the worst-priority holder.
			victim = s
			found = true
		}
	}
	return victim, found
}
