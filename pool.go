package condor

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"condor/internal/ckpt"
	"condor/internal/coordinator"
	"condor/internal/decision"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/ru"
	"condor/internal/schedd"
)

// PoolConfig parameterizes an in-process cluster.
type PoolConfig struct {
	// Stations is the number of workstations (default 4).
	Stations int
	// StationPrefix names stations "<prefix>0".."<prefix>N-1" (default
	// "ws").
	StationPrefix string
	// Fast shrinks every interval (polls, scans, grace, pacing) to
	// milliseconds so demos and tests converge quickly. Without Fast the
	// paper's production intervals apply (2-minute polls, 30-second
	// scans, 5-minute grace).
	Fast bool

	// PollInterval overrides the coordinator poll period.
	PollInterval time.Duration
	// ScanInterval overrides the owner-activity scan period.
	ScanInterval time.Duration
	// SuspendGrace overrides the §4 grace period.
	SuspendGrace time.Duration
	// PlacementPacing overrides the per-station placement gap.
	PlacementPacing time.Duration
	// PeriodicCheckpoint enables §4 periodic checkpointing.
	PeriodicCheckpoint time.Duration
	// KillImmediately selects the §4 kill policy instead of
	// suspend-then-vacate.
	KillImmediately bool
	// DiskBytes caps each station's checkpoint store (0 = unlimited).
	DiskBytes int64
	// SliceDelay throttles foreign-job execution (useful in demos that
	// want time to interact with a running job).
	SliceDelay time.Duration
	// StepsPerSlice bounds instructions between control checks.
	StepsPerSlice uint64
	// Policy tunes the coordinator's allocation pipeline (predicates,
	// grant caps, preemption). The zero value means policy.DefaultConfig.
	Policy policy.Config
}

func (c *PoolConfig) sanitize() {
	if c.Stations <= 0 {
		c.Stations = 4
	}
	if c.StationPrefix == "" {
		c.StationPrefix = "ws"
	}
	if c.Fast {
		def := func(d *time.Duration, v time.Duration) {
			if *d == 0 {
				*d = v
			}
		}
		def(&c.PollInterval, 10*time.Millisecond)
		def(&c.ScanInterval, 5*time.Millisecond)
		def(&c.SuspendGrace, 50*time.Millisecond)
		// PlacementPacing stays 0 (off) in fast mode unless set.
	}
}

// Pool is an in-process Condor cluster: one coordinator and N stations
// wired over real TCP on localhost.
type Pool struct {
	coord     *coordinator.Coordinator
	decisions *decision.Recorder
	stations  map[string]*schedd.Station
	monitors  map[string]*machine.ScriptedMonitor
	order     []string
}

// NewPool builds and starts a cluster.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg.sanitize()
	decisions := decision.NewRecorder(decision.DefaultCapacity)
	coord, err := coordinator.New(coordinator.Config{
		PollInterval: cfg.PollInterval,
		Policy:       cfg.Policy,
		Decisions:    decisions,
	})
	if err != nil {
		return nil, err
	}
	p := &Pool{
		coord:     coord,
		decisions: decisions,
		stations:  make(map[string]*schedd.Station, cfg.Stations),
		monitors:  make(map[string]*machine.ScriptedMonitor, cfg.Stations),
	}
	policy := ru.VacateSuspendFirst
	if cfg.KillImmediately {
		policy = ru.VacateKillImmediately
	}
	for i := 0; i < cfg.Stations; i++ {
		name := fmt.Sprintf("%s%d", cfg.StationPrefix, i)
		mon := machine.NewScriptedMonitor(false)
		var store ckpt.Store
		if cfg.DiskBytes > 0 {
			store = ckpt.NewMemStore(cfg.DiskBytes, true)
		}
		st, err := schedd.New(schedd.Config{
			Name:    name,
			Monitor: mon,
			Store:   store,
			Starter: ru.StarterConfig{
				ScanInterval:       cfg.ScanInterval,
				SuspendGrace:       cfg.SuspendGrace,
				Policy:             policy,
				PeriodicCheckpoint: cfg.PeriodicCheckpoint,
				SliceDelay:         cfg.SliceDelay,
				StepsPerSlice:      cfg.StepsPerSlice,
			},
			PlacementPacing: cfg.PlacementPacing,
		})
		if err != nil {
			p.Close()
			return nil, err
		}
		if err := st.Register(coord.Addr()); err != nil {
			st.Close()
			p.Close()
			return nil, err
		}
		p.stations[name] = st
		p.monitors[name] = mon
		p.order = append(p.order, name)
	}
	return p, nil
}

// Close shuts the whole cluster down.
func (p *Pool) Close() {
	for _, st := range p.stations {
		st.Close()
	}
	if p.coord != nil {
		p.coord.Close()
	}
}

// StationNames lists the stations in creation order.
func (p *Pool) StationNames() []string {
	return append([]string(nil), p.order...)
}

// CoordinatorAddr returns the coordinator's TCP address (for external
// condor-status / condor-submit tools).
func (p *Pool) CoordinatorAddr() string { return p.coord.Addr() }

// StationAddr returns a station's TCP address.
func (p *Pool) StationAddr(name string) (string, error) {
	st, ok := p.stations[name]
	if !ok {
		return "", fmt.Errorf("condor: unknown station %q", name)
	}
	return st.Addr(), nil
}

// Submit queues a program on the named station for the given owner.
func (p *Pool) Submit(station, owner string, prog *Program) (string, error) {
	return p.SubmitJob(station, owner, prog, SubmitOptions{})
}

// SubmitJob is Submit with queue options (priority, stack size).
func (p *Pool) SubmitJob(station, owner string, prog *Program, opts SubmitOptions) (string, error) {
	st, ok := p.stations[station]
	if !ok {
		return "", fmt.Errorf("condor: unknown station %q", station)
	}
	return st.SubmitJob(owner, prog, opts)
}

// Reserve grants holder exclusive remote use of station for d (§5.3).
func (p *Pool) Reserve(station, holder string, d time.Duration) (time.Time, error) {
	return p.coord.Reserve(station, holder, d)
}

// CancelReservation releases a station's reservation.
func (p *Pool) CancelReservation(station string) bool {
	return p.coord.CancelReservation(station)
}

// Job returns a job's status; the job id encodes its home station.
func (p *Pool) Job(jobID string) (JobStatus, error) {
	st, err := p.home(jobID)
	if err != nil {
		return JobStatus{}, err
	}
	return st.Job(jobID)
}

// Wait blocks until the job reaches a terminal state or timeout elapses
// (returning the current status in that case).
func (p *Pool) Wait(jobID string, timeout time.Duration) (JobStatus, error) {
	st, err := p.home(jobID)
	if err != nil {
		return JobStatus{}, err
	}
	return st.Wait(jobID, timeout)
}

// Remove deletes a job, vacating it if it is running.
func (p *Pool) Remove(jobID string) (bool, error) {
	st, err := p.home(jobID)
	if err != nil {
		return false, err
	}
	return st.Remove(jobID), nil
}

// Queue lists a station's jobs.
func (p *Pool) Queue(station string) ([]JobStatus, error) {
	st, ok := p.stations[station]
	if !ok {
		return nil, fmt.Errorf("condor: unknown station %q", station)
	}
	return st.Queue(), nil
}

// SetOwnerActive scripts a workstation owner's presence. Setting a
// station active evicts (suspends, then vacates) any foreign job there.
func (p *Pool) SetOwnerActive(station string, active bool) error {
	mon, ok := p.monitors[station]
	if !ok {
		return fmt.Errorf("condor: unknown station %q", station)
	}
	mon.SetActive(active)
	return nil
}

// Status returns the coordinator's pool table.
func (p *Pool) Status() []StationInfo { return p.coord.Stations() }

// StoreUsage reports a station's checkpoint-store footprint — the §4
// disk-space story, including shared text segments.
func (p *Pool) StoreUsage(station string) (StoreUsage, error) {
	st, ok := p.stations[station]
	if !ok {
		return StoreUsage{}, fmt.Errorf("condor: unknown station %q", station)
	}
	return st.Store().Usage(), nil
}

// History returns a station's recent event log (most recent last); a
// non-empty jobID filters to that job's lifecycle trail.
func (p *Pool) History(station, jobID string, limit int) ([]Event, error) {
	st, ok := p.stations[station]
	if !ok {
		return nil, fmt.Errorf("condor: unknown station %q", station)
	}
	return st.Events().Query(jobID, "", limit), nil
}

// CoordinatorHistory returns the coordinator's decision log (grants,
// preemptions, reservations, registrations).
func (p *Pool) CoordinatorHistory(limit int) []Event {
	return p.coord.Events().Recent(limit)
}

// Cycle forces one coordinator poll-decide-act cycle immediately,
// instead of waiting for the next tick. Deterministic demos use it.
func (p *Pool) Cycle() { p.coord.Cycle() }

// Decisions pages through the coordinator's decision-audit ring — the
// per-cycle explain traces behind condor-explain. The
// filters compose: job matches cycles whose grants or preempts name the
// job, station matches any role (requester, rejected candidate, exec,
// victim), cycle selects one cycle (>0 absolute, <0 from the newest),
// and last keeps only the most recent N cycles.
func (p *Pool) Decisions(job, station string, cycle int64, last int) decision.Page {
	return p.decisions.PageFor(job, station, cycle, last)
}

func (p *Pool) home(jobID string) (*schedd.Station, error) {
	idx := strings.LastIndex(jobID, "/")
	if idx <= 0 {
		return nil, errors.New("condor: malformed job id")
	}
	st, ok := p.stations[jobID[:idx]]
	if !ok {
		return nil, fmt.Errorf("condor: unknown home station in job id %q", jobID)
	}
	return st, nil
}
