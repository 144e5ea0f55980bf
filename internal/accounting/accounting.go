// Package accounting is the live counterpart of the paper's §5
// evaluation: it measures, on a running pool, the quantities the paper
// reports from its logs — remote capacity consumed per user and per
// station, the local support time spent earning it (the denominator of
// leverage, §3.1), queue waits, checkpoint overhead, and *badput*, work
// redone after a preemption because it happened since the last
// checkpoint.
//
// The design splits into a hot layer and a cold layer. The hot layer is
// the Meter: one per job, all fields atomics, handed out interned so the
// shadow's per-syscall path and the executor's per-slice path never take
// a lock or allocate (enforced by TestSyscallPathAllocatesNothing).
// The cold layer is the Ledger: it interns meters, folds finished jobs
// into per-station and per-user totals, tracks the coordinator's
// allocation counters (grants/denials/preempts/capacity), and renders
// everything as a View for the AccountingRequest RPC and condor-report.
// The month simulator books into meters of a ledger of its own, and
// Figures draws §3's per-job results from meter totals on either
// substrate.
//
// One subtlety when home and execution sides share a process (in-process
// pools, tests): both sides intern the same meter, so each field has
// exactly one writing side — the executor owns remote CPU, checkpoints
// and badput; the shadow/schedd own syscalls, support time and queue
// waits. Cumulative VM steps are reconciled with a CAS-max, which is
// idempotent from either side.
package accounting

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"condor/internal/cost"
)

// Meter accumulates one job's accounting. All methods are safe for
// concurrent use; the hot-path methods (Syscall, ExecTime, ObserveSteps)
// touch only atomics.
type Meter struct {
	// JobID, Owner and Home identify the job; set at intern time and
	// immutable afterwards.
	JobID string
	Owner string
	Home  string

	// Home-side support: forwarded system calls served by the shadow and
	// the wall time the home machine spent serving them (plus checkpoint
	// ingest) — the leverage denominator.
	syscalls     atomic.Uint64
	syscallBytes atomic.Int64
	supportNanos atomic.Int64

	// Exec-side capacity: cumulative guest steps (CAS-max of the VM's
	// monotonic counter) and wall time inside VM slices.
	remoteSteps atomic.Uint64
	remoteNanos atomic.Int64

	// Checkpoint overhead: count, encode+ship wall time, blob bytes.
	ckpts     atomic.Uint64
	ckptNanos atomic.Int64
	ckptBytes atomic.Int64

	// badputSteps is guest work lost to a preemption — steps executed
	// beyond the checkpoint the job was resumed from.
	badputSteps atomic.Uint64
	preempts    atomic.Uint64
	placements  atomic.Uint64

	// Queue wait: accrued nanos over all idle episodes, plus the start of
	// the current episode (0 = not waiting).
	queueWaitNanos atomic.Int64
	waitingSince   atomic.Int64

	ledger *Ledger
}

// Syscall records one forwarded system call: the guest payload size
// (request + reply) and the wall time the home machine spent serving it.
// This is the per-syscall hot path: three atomic adds, no locks, no
// allocation.
func (m *Meter) Syscall(bytes int, d time.Duration) {
	m.syscalls.Add(1)
	m.syscallBytes.Add(int64(bytes))
	m.supportNanos.Add(int64(d))
}

// Support adds home-side support time outside the syscall path
// (checkpoint ingest, terminal-event handling).
func (m *Meter) Support(d time.Duration) { m.supportNanos.Add(int64(d)) }

// ExecTime adds exec-side wall time spent inside VM slices.
func (m *Meter) ExecTime(d time.Duration) { m.remoteNanos.Add(int64(d)) }

// ObserveSteps reconciles the job's cumulative guest step counter via
// CAS-max: callable from either side with whatever total it last saw.
func (m *Meter) ObserveSteps(total uint64) {
	for {
		cur := m.remoteSteps.Load()
		if total <= cur || m.remoteSteps.CompareAndSwap(cur, total) {
			return
		}
	}
}

// StepsBeyond returns how far the observed step total runs past base —
// the work that will be redone if the job resumes from a checkpoint
// taken at base.
func (m *Meter) StepsBeyond(base uint64) uint64 {
	cur := m.remoteSteps.Load()
	if cur <= base {
		return 0
	}
	return cur - base
}

// Checkpoint records one checkpoint of this job: blob size and the wall
// time spent encoding and shipping it.
func (m *Meter) Checkpoint(bytes int, d time.Duration) {
	m.ckpts.Add(1)
	m.ckptBytes.Add(int64(bytes))
	m.ckptNanos.Add(int64(d))
}

// Badput records guest steps lost to a preemption (work beyond the
// checkpoint the job will resume from — it will be redone).
func (m *Meter) Badput(steps uint64) {
	if steps > 0 {
		m.badputSteps.Add(steps)
	}
}

// Preempted counts one preemption (owner return or Up-Down order).
func (m *Meter) Preempted() { m.preempts.Add(1) }

// StartWaiting marks the beginning of an idle episode (submit, requeue
// after vacate, placement failure).
func (m *Meter) StartWaiting(t time.Time) { m.waitingSince.Store(t.UnixNano()) }

// Placed ends the current idle episode at t and counts a placement. The
// episode's wait lands in the job's total and the ledger's distribution.
func (m *Meter) Placed(t time.Time) {
	m.placements.Add(1)
	since := m.waitingSince.Swap(0)
	if since == 0 {
		return
	}
	w := t.UnixNano() - since
	if w < 0 {
		w = 0
	}
	m.queueWaitNanos.Add(w)
	if m.ledger != nil {
		m.ledger.observeWait(time.Duration(w))
	}
}

// JobTotals is the accumulated accounting of one job (or a fold over
// many). All fields are plain values so the struct travels through JSON
// unchanged.
type JobTotals struct {
	RemoteSteps    uint64 `json:"remoteSteps"`
	RemoteNanos    int64  `json:"remoteNanos"`
	Syscalls       uint64 `json:"syscalls"`
	SyscallBytes   int64  `json:"syscallBytes"`
	SupportNanos   int64  `json:"supportNanos"`
	Checkpoints    uint64 `json:"checkpoints"`
	CkptNanos      int64  `json:"ckptNanos"`
	CkptBytes      int64  `json:"ckptBytes"`
	BadputSteps    uint64 `json:"badputSteps"`
	Preempts       uint64 `json:"preempts"`
	Placements     uint64 `json:"placements"`
	QueueWaitNanos int64  `json:"queueWaitNanos"`
}

func (t *JobTotals) add(o JobTotals) {
	t.RemoteSteps += o.RemoteSteps
	t.RemoteNanos += o.RemoteNanos
	t.Syscalls += o.Syscalls
	t.SyscallBytes += o.SyscallBytes
	t.SupportNanos += o.SupportNanos
	t.Checkpoints += o.Checkpoints
	t.CkptNanos += o.CkptNanos
	t.CkptBytes += o.CkptBytes
	t.BadputSteps += o.BadputSteps
	t.Preempts += o.Preempts
	t.Placements += o.Placements
	t.QueueWaitNanos += o.QueueWaitNanos
}

// GoodputSteps returns guest steps that counted toward completion:
// everything executed minus work that had to be redone.
func (t JobTotals) GoodputSteps() uint64 {
	if t.BadputSteps >= t.RemoteSteps {
		return 0
	}
	return t.RemoteSteps - t.BadputSteps
}

// Leverage returns remote execution time obtained per unit of home-side
// support time (§3.1), computed from the measured wall clocks.
func (t JobTotals) Leverage() float64 {
	return cost.Leverage(time.Duration(t.RemoteNanos), time.Duration(t.SupportNanos))
}

// Totals snapshots the meter's atomics.
func (m *Meter) Totals() JobTotals {
	return JobTotals{
		RemoteSteps:    m.remoteSteps.Load(),
		RemoteNanos:    m.remoteNanos.Load(),
		Syscalls:       m.syscalls.Load(),
		SyscallBytes:   m.syscallBytes.Load(),
		SupportNanos:   m.supportNanos.Load(),
		Checkpoints:    m.ckpts.Load(),
		CkptNanos:      m.ckptNanos.Load(),
		CkptBytes:      m.ckptBytes.Load(),
		BadputSteps:    m.badputSteps.Load(),
		Preempts:       m.preempts.Load(),
		Placements:     m.placements.Load(),
		QueueWaitNanos: m.queueWaitNanos.Load(),
	}
}

// PartyTotals aggregates jobs by station or by user.
type PartyTotals struct {
	// Jobs counts jobs ever metered under this party; Retired counts
	// those that reached a terminal state and were folded in.
	Jobs    uint64 `json:"jobs"`
	Retired uint64 `json:"retired"`
	JobTotals
}

// AllocTotals is the coordinator's per-station allocation accounting.
type AllocTotals struct {
	// Grants/GrantsUsed/GrantsDenied count capacity granted to this
	// station (as the requesting home station).
	Grants       uint64 `json:"grants"`
	GrantsUsed   uint64 `json:"grantsUsed"`
	GrantsDenied uint64 `json:"grantsDenied"`
	// Preempts counts Up-Down preemptions charged to this station's jobs.
	Preempts uint64 `json:"preempts"`
	// CapacityCycles counts machine-cycles of remote capacity held
	// (one poll cycle × one machine each); CapacityNanos is the same
	// scaled by the poll interval — the paper's "capacity consumed".
	CapacityCycles uint64 `json:"capacityCycles"`
	CapacityNanos  int64  `json:"capacityNanos"`
}

func (a AllocTotals) zero() bool { return a == AllocTotals{} }

// waitBounds are the queue-wait distribution bucket upper bounds; the
// final implicit bucket is +Inf.
var waitBounds = []time.Duration{
	10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
	time.Minute, 10 * time.Minute, time.Hour,
}

// WaitDist is a fixed-bucket queue-wait distribution. Counts has one
// entry per waitBounds bound plus a final overflow bucket.
type WaitDist struct {
	Counts   []uint64 `json:"counts"`
	SumNanos int64    `json:"sumNanos"`
	Count    uint64   `json:"count"`
}

// WaitBucketLabel names bucket i of a WaitDist for rendering.
func WaitBucketLabel(i int) string {
	if i >= len(waitBounds) {
		return "> " + waitBounds[len(waitBounds)-1].String()
	}
	return "≤ " + waitBounds[i].String()
}

// Ledger interns job meters and aggregates them. One process-global
// instance (Default) is shared by schedd and ru; the coordinator keeps
// its own for allocation accounting so restart recovery has clean
// semantics.
type Ledger struct {
	mu       sync.Mutex
	jobs     map[string]*Meter
	stations map[string]*PartyTotals // retired base, by home station
	users    map[string]*PartyTotals // retired base, by owner
	alloc    map[string]*AllocTotals
	wait     WaitDist
	sampler  *Sampler
}

// Default is the process-wide ledger all daemons in this process feed.
var Default = NewLedger()

// NewLedger returns an empty ledger with a default-capacity sampler.
func NewLedger() *Ledger {
	return &Ledger{
		jobs:     make(map[string]*Meter),
		stations: make(map[string]*PartyTotals),
		users:    make(map[string]*PartyTotals),
		alloc:    make(map[string]*AllocTotals),
		wait:     WaitDist{Counts: make([]uint64, len(waitBounds)+1)},
		sampler:  NewSampler(0),
	}
}

// Job interns the meter for jobID, creating it on first use. Later calls
// may pass empty owner/home; the first non-empty values stick. Callers
// intern once and hold the pointer — never in a hot path.
func (l *Ledger) Job(jobID, owner, home string) *Meter {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.jobs[jobID]; ok {
		return m
	}
	m := &Meter{JobID: jobID, Owner: owner, Home: home, ledger: l}
	l.jobs[jobID] = m
	l.partyLocked(l.stations, home).Jobs++
	l.partyLocked(l.users, owner).Jobs++
	return m
}

// partyLocked interns a PartyTotals row; the empty name keys jobs whose
// owner/home was never learned.
func (l *Ledger) partyLocked(m map[string]*PartyTotals, name string) *PartyTotals {
	p, ok := m[name]
	if !ok {
		p = &PartyTotals{}
		m[name] = p
	}
	return p
}

// Retire folds a finished job's meter into its station and user totals
// and drops the live entry, bounding the jobs map to in-flight work.
func (l *Ledger) Retire(jobID string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.jobs[jobID]
	if !ok {
		return
	}
	delete(l.jobs, jobID)
	t := m.Totals()
	for _, p := range []*PartyTotals{
		l.partyLocked(l.stations, m.Home),
		l.partyLocked(l.users, m.Owner),
	} {
		p.Retired++
		p.add(t)
	}
}

// observeWait lands one finished idle episode in the distribution.
func (l *Ledger) observeWait(w time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(waitBounds), func(i int) bool { return w <= waitBounds[i] })
	l.wait.Counts[i]++
	l.wait.SumNanos += int64(w)
	l.wait.Count++
}

// Grant charges one capacity grant to the requesting home station.
func (l *Ledger) Grant(station string) { l.allocAdd(station, func(a *AllocTotals) { a.Grants++ }) }

// GrantUsed counts a grant the station turned into a placement.
func (l *Ledger) GrantUsed(station string) {
	l.allocAdd(station, func(a *AllocTotals) { a.GrantsUsed++ })
}

// GrantDenied counts a grant the station declined or that was lost.
func (l *Ledger) GrantDenied(station string) {
	l.allocAdd(station, func(a *AllocTotals) { a.GrantsDenied++ })
}

// Preempt charges one Up-Down preemption to the victim home station.
func (l *Ledger) Preempt(station string) { l.allocAdd(station, func(a *AllocTotals) { a.Preempts++ }) }

// Capacity charges one poll cycle of held remote capacity: machines
// currently executing the station's jobs × the cycle period.
func (l *Ledger) Capacity(station string, machines int, cycle time.Duration) {
	if machines <= 0 {
		return
	}
	l.allocAdd(station, func(a *AllocTotals) {
		a.CapacityCycles += uint64(machines)
		a.CapacityNanos += int64(machines) * int64(cycle)
	})
}

func (l *Ledger) allocAdd(station string, f func(*AllocTotals)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, ok := l.alloc[station]
	if !ok {
		a = &AllocTotals{}
		l.alloc[station] = a
	}
	f(a)
}

// AllocSnapshot returns the allocation totals by station — absolute
// values, so the coordinator can journal them idempotently.
func (l *Ledger) AllocSnapshot() map[string]AllocTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]AllocTotals, len(l.alloc))
	for name, a := range l.alloc {
		if !a.zero() {
			out[name] = *a
		}
	}
	return out
}

// RestoreAlloc overwrites the allocation totals from a recovered
// state (the coordinator's saved state).
func (l *Ledger) RestoreAlloc(totals map[string]AllocTotals) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alloc = make(map[string]*AllocTotals, len(totals))
	for name, a := range totals {
		cp := a
		l.alloc[name] = &cp
	}
}

// Sampler returns the ledger's time-series sampler.
func (l *Ledger) Sampler() *Sampler { return l.sampler }

// JobRow is one live job in a View.
type JobRow struct {
	JobID string `json:"jobID"`
	Owner string `json:"owner"`
	Home  string `json:"home"`
	JobTotals
	// WaitingNanos is the current unfinished idle episode, if any.
	WaitingNanos int64 `json:"waitingNanos,omitempty"`
}

// PartyRow is one station or user in a View, live jobs folded in.
type PartyRow struct {
	Name string `json:"name"`
	PartyTotals
	// Leverage is remote execution time per unit of home support time,
	// from the measured wall clocks (cost.Leverage semantics).
	Leverage float64 `json:"leverage"`
}

// AllocRow is one station's allocation totals in a View.
type AllocRow struct {
	Station string `json:"station"`
	AllocTotals
}

// View is one ledger's full rendering: the payload of the
// AccountingRequest RPC and condor-report.
type View struct {
	GeneratedUnixMilli int64      `json:"generatedUnixMilli"`
	Jobs               []JobRow   `json:"jobs,omitempty"`
	Stations           []PartyRow `json:"stations,omitempty"`
	Users              []PartyRow `json:"users,omitempty"`
	Alloc              []AllocRow `json:"alloc,omitempty"`
	QueueWait          WaitDist   `json:"queueWait"`
	// Series is the sampler's history: utilization profile and schedule
	// index trajectories, oldest point first.
	Series map[string][]Point `json:"series,omitempty"`
}

// Snapshot renders the ledger: live jobs as rows, and per-party totals
// with live jobs folded on top of the retired base.
func (l *Ledger) Snapshot() View {
	now := time.Now()
	l.mu.Lock()
	v := View{GeneratedUnixMilli: now.UnixMilli()}
	stations := make(map[string]PartyTotals, len(l.stations))
	users := make(map[string]PartyTotals, len(l.users))
	for name, p := range l.stations {
		stations[name] = *p
	}
	for name, p := range l.users {
		users[name] = *p
	}
	for _, m := range l.jobs {
		t := m.Totals()
		row := JobRow{JobID: m.JobID, Owner: m.Owner, Home: m.Home, JobTotals: t}
		if since := m.waitingSince.Load(); since != 0 {
			if w := now.UnixNano() - since; w > 0 {
				row.WaitingNanos = w
			}
		}
		v.Jobs = append(v.Jobs, row)
		s := stations[m.Home]
		s.add(t)
		stations[m.Home] = s
		u := users[m.Owner]
		u.add(t)
		users[m.Owner] = u
	}
	for name, a := range l.alloc {
		if !a.zero() {
			v.Alloc = append(v.Alloc, AllocRow{Station: name, AllocTotals: *a})
		}
	}
	v.QueueWait = WaitDist{
		Counts:   append([]uint64(nil), l.wait.Counts...),
		SumNanos: l.wait.SumNanos,
		Count:    l.wait.Count,
	}
	l.mu.Unlock()

	v.Stations = partyRows(stations)
	v.Users = partyRows(users)
	sort.Slice(v.Jobs, func(i, j int) bool { return v.Jobs[i].JobID < v.Jobs[j].JobID })
	sort.Slice(v.Alloc, func(i, j int) bool { return v.Alloc[i].Station < v.Alloc[j].Station })
	v.Series = l.sampler.Histories()
	return v
}

func partyRows(m map[string]PartyTotals) []PartyRow {
	rows := make([]PartyRow, 0, len(m))
	for name, p := range m {
		if p.Jobs == 0 && p.RemoteSteps == 0 {
			continue
		}
		rows = append(rows, PartyRow{Name: name, PartyTotals: p, Leverage: p.Leverage()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}
