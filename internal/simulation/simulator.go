package simulation

import (
	"fmt"
	"time"

	"condor/internal/accounting"
	"condor/internal/avail"
	"condor/internal/decision"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/sim"
	"condor/internal/updown"
	"condor/internal/workload"
)

// jobState is a simulated job's lifecycle state.
type jobState int

const (
	jobQueued jobState = iota + 1
	jobRunning
	jobSuspended
	jobDone
)

// simJob is one background job in flight.
type simJob struct {
	wj        workload.Job
	state     jobState
	remaining time.Duration
	runStart  time.Time
	machine   *simMachine
	timer     *sim.Timer // completion timer while running

	submitted time.Time
	doneAt    time.Time

	// meter books the job's placements, checkpoints, forwarded calls and
	// preemptions, as the live shadow and executor book theirs.
	meter *accounting.Meter

	// lastCkptRemaining is the remaining CPU recorded at the last
	// checkpoint; under kill-immediately, work past it is redone.
	lastCkptRemaining time.Duration
	periodicTimer     *sim.Timer
}

// simMachine is one workstation.
type simMachine struct {
	name  string
	class avail.Class
	gen   *avail.Machine

	ownerActive bool
	down        bool
	foreign     *simJob
	graceTimer  *sim.Timer

	// idle is the owner-availability history §5.1 placement reads,
	// observed at every owner flip and at repair: the same code the live
	// starter's owner scan feeds.
	idle machine.Tracker

	// state integration for utilization accounting.
	lastChange  time.Time
	ownerTime   time.Duration // owner-active machine-time
	claimedTime time.Duration // foreign job actually computing
	suspendTime time.Duration // foreign job frozen by owner return
	downTime    time.Duration // crashed
}

// user is one submitting user (and their home workstation for Up-Down
// accounting).
type user struct {
	profile workload.UserProfile
	home    string
	stream  *workload.FeedbackStream
	queue   []*simJob // FIFO of queued jobs
	// inSystem counts queued+running+suspended jobs.
	inSystem int
}

// simulator holds one run's state.
type simulator struct {
	cfg     Config
	engine  *sim.Engine
	end     time.Time // observation window end
	hardEnd time.Time

	machines []*simMachine
	users    []*user
	byHome   map[string]*user
	byName   map[string]*simMachine
	jobs     []*simJob

	table *updown.Table
	// ledger is this run's own: the jobs' meters and the Up-Down
	// preemptions charged to their home stations.
	ledger *accounting.Ledger
	// pol is the scheduling policy under test.
	pol *policy.Policy

	// cycles numbers poll cycles for the decision audit ring.
	cycles uint64

	rep *Report
}

// Run executes one simulation and returns its report.
func Run(cfg Config) *Report {
	cfg.sanitize()
	s := newSimulator(cfg)
	s.install()
	// Run to the hard end; the engine returns ErrHorizonReached if
	// self-rescheduling events (the poll ticker) remain, which is normal.
	_ = s.engine.Run(s.hardEnd)
	s.finalize()
	return s.rep
}

func newSimulator(cfg Config) *simulator {
	start := windowStart
	end := start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	s := &simulator{
		cfg:     cfg,
		engine:  sim.NewEngine(start),
		end:     end,
		hardEnd: end.Add(time.Duration(cfg.DrainDays) * 24 * time.Hour),
		byHome:  make(map[string]*user),
		byName:  make(map[string]*simMachine),
		table:   updown.NewTable(updown.DefaultConfig()),
		ledger:  accounting.NewLedger(),
	}
	pol, err := policy.New(cfg.Policy.Name)
	if err != nil {
		panic(fmt.Sprintf("simulation: %v", err))
	}
	s.pol = pol
	s.rep = newReport(start, end)

	rng := sim.NewRNG(cfg.Seed)
	availRNG := rng.Derive()
	wlRNG := rng.Derive()

	for i := 0; i < cfg.Machines; i++ {
		name := fmt.Sprintf("ws%02d", i)
		class := avail.ClassFor(i, cfg.Machines)
		m := &simMachine{
			name:       name,
			class:      class,
			gen:        avail.NewMachine(name, class, availRNG.Derive()),
			lastChange: start,
		}
		m.idle.Observe(true, start) // machines start with the owner away
		s.machines = append(s.machines, m)
		s.byName[name] = m
		// Registration order is machine index, so FIFO and Up-Down's
		// tie-break do not depend on which stations want first.
		s.table.Touch(name)
	}

	wl := workload.Generate(workload.Config{Start: start, End: end}, wlRNG)
	for i, p := range wl.Profiles {
		u := &user{
			profile: p,
			home:    fmt.Sprintf("ws%02d", i%cfg.Machines),
		}
		s.users = append(s.users, u)
		s.byHome[u.home] = u
	}
	// Attach feedback streams to their users.
	for _, fs := range wl.Feedback {
		for _, u := range s.users {
			if u.profile.Name == fs.User() {
				u.stream = fs
			}
		}
	}
	// Schedule open-loop arrivals.
	for _, j := range wl.Open {
		j := j
		s.engine.At(j.Submit, func(now time.Time) { s.arrive(j, now) })
	}
	return s
}

func (s *simulator) userOf(name string) *user {
	for _, u := range s.users {
		if u.profile.Name == name {
			return u
		}
	}
	return nil
}

// install schedules the recurring machinery: owner flips, the poll
// cycle, and the hourly samplers.
func (s *simulator) install() {
	for _, m := range s.machines {
		m := m
		s.engine.After(m.gen.NextIdle(s.engine.Now()), func(now time.Time) {
			s.ownerFlip(m, now)
		})
	}
	if s.cfg.CrashMTBF > 0 {
		crashRNG := sim.NewRNG(s.cfg.Seed ^ 0x5ca1ab1e)
		for _, m := range s.machines {
			m := m
			r := crashRNG.Derive()
			d := time.Duration(r.Exp(float64(s.cfg.CrashMTBF)))
			s.engine.After(d, func(now time.Time) { s.crash(m, r, now) })
		}
	}
	// Both intervals are positive constants, so Every cannot fail.
	if _, err := s.engine.Every(pollInterval, s.pollCycle); err != nil {
		panic(err)
	}
	if _, err := s.engine.Every(time.Hour, s.sampleHour); err != nil {
		panic(err)
	}
}

// arrive adds a job to its user's queue.
func (s *simulator) arrive(wj workload.Job, now time.Time) {
	u := s.userOf(wj.User)
	if u == nil {
		return
	}
	j := &simJob{
		wj:                wj,
		state:             jobQueued,
		remaining:         wj.Demand,
		submitted:         now,
		lastCkptRemaining: wj.Demand,
		meter:             s.ledger.Job(wj.ID, wj.User, u.home),
	}
	u.queue = append(u.queue, j)
	u.inSystem++
	s.jobs = append(s.jobs, j)
}

// ownerFlip toggles a machine's owner state and reschedules the next
// flip.
func (s *simulator) ownerFlip(m *simMachine, now time.Time) {
	if m.down {
		// The machine is off; the owner process resumes after repair.
		s.engine.After(m.gen.NextIdle(now), func(t time.Time) { s.ownerFlip(m, t) })
		return
	}
	if m.ownerActive {
		s.integrate(m, now)
		m.ownerActive = false
		m.idle.Observe(true, now)
		if m.foreign != nil && m.foreign.state == jobSuspended {
			// Owner left within the grace period: resume in place (§4).
			m.stopGrace()
			s.resume(m.foreign, now)
		}
		s.engine.After(m.gen.NextIdle(now), func(t time.Time) { s.ownerFlip(m, t) })
		return
	}
	// Owner returns.
	s.integrate(m, now)
	m.ownerActive = true
	m.idle.Observe(false, now)
	if m.foreign != nil && m.foreign.state == jobRunning {
		switch s.cfg.Vacate {
		case VacateKillImmediately:
			s.killToLastCheckpoint(m.foreign, now)
		default:
			s.suspend(m.foreign, now)
			job := m.foreign
			m.graceTimer = s.engine.After(suspendGrace, func(t time.Time) {
				if m.foreign == job && job.state == jobSuspended {
					s.vacate(job, t)
				}
			})
		}
	}
	s.engine.After(m.gen.NextActive(now), func(t time.Time) { s.ownerFlip(m, t) })
}

// integrate accrues the machine's time-in-state up to now.
func (s *simulator) integrate(m *simMachine, now time.Time) {
	// Clamp accounting to the observation window.
	from, to := m.lastChange, now
	m.lastChange = now
	if to.After(s.end) {
		to = s.end
	}
	if from.After(to) {
		return
	}
	d := to.Sub(from)
	switch {
	case m.down:
		m.downTime += d
	case m.ownerActive:
		m.ownerTime += d
	case m.foreign != nil && m.foreign.state == jobRunning:
		m.claimedTime += d
	case m.foreign != nil && m.foreign.state == jobSuspended:
		m.suspendTime += d
	}
}

// place starts a queued job on an idle machine.
func (s *simulator) place(u *user, m *simMachine, now time.Time) bool {
	if m.down || m.ownerActive || m.foreign != nil || len(u.queue) == 0 {
		return false
	}
	j := u.queue[0]
	u.queue = u.queue[1:]
	s.integrate(m, now)
	j.state = jobRunning
	j.machine = m
	j.runStart = now
	j.meter.Placed(now)
	m.foreign = j
	s.scheduleCompletion(j, now)
	s.schedulePeriodic(j, now)
	return true
}

func (s *simulator) scheduleCompletion(j *simJob, now time.Time) {
	j.timer = s.engine.After(j.remaining, func(t time.Time) { s.complete(j, t) })
}

func (s *simulator) schedulePeriodic(j *simJob, now time.Time) {
	if s.cfg.PeriodicCheckpoint <= 0 {
		return
	}
	j.periodicTimer = s.engine.After(s.cfg.PeriodicCheckpoint, func(t time.Time) {
		if j.state != jobRunning {
			return
		}
		s.chargeProgress(j, t)
		j.runStart = t
		j.meter.Checkpoint(int(j.wj.CheckpointBytes), 0)
		j.lastCkptRemaining = j.remaining
		s.schedulePeriodic(j, t)
	})
}

// chargeProgress folds CPU consumed since runStart into the job.
func (s *simulator) chargeProgress(j *simJob, now time.Time) {
	consumed := now.Sub(j.runStart)
	if consumed < 0 {
		consumed = 0
	}
	if consumed > j.remaining {
		consumed = j.remaining
	}
	j.remaining -= consumed
	// The calls the job forwarded home while it ran (§3.1's model).
	for n := int64(j.wj.SyscallRate * consumed.Seconds()); n > 0; n-- {
		j.meter.Syscall(0, 0)
	}
	// Remote capacity consumed inside the window counts toward Figure 5.
	s.rep.recordRemoteCPU(j.runStart, now, s.end)
}

func (s *simulator) stopTimers(j *simJob) {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.periodicTimer != nil {
		j.periodicTimer.Stop()
		j.periodicTimer = nil
	}
}

// suspend freezes a running job in place (owner returned).
func (s *simulator) suspend(j *simJob, now time.Time) {
	s.integrate(j.machine, now)
	s.chargeProgress(j, now)
	s.stopTimers(j)
	j.state = jobSuspended
}

// resume continues a suspended job on the same machine.
func (s *simulator) resume(j *simJob, now time.Time) {
	s.integrate(j.machine, now)
	j.state = jobRunning
	j.runStart = now
	s.scheduleCompletion(j, now)
	s.schedulePeriodic(j, now)
}

// vacate checkpoints a job off its machine and requeues it.
func (s *simulator) vacate(j *simJob, now time.Time) {
	m := j.machine
	if m == nil {
		return
	}
	s.integrate(m, now)
	if j.state == jobRunning {
		s.chargeProgress(j, now)
	}
	s.stopTimers(j)
	j.meter.Checkpoint(int(j.wj.CheckpointBytes), 0)
	j.meter.Preempted()
	j.lastCkptRemaining = j.remaining
	s.requeue(j)
}

// killToLastCheckpoint implements the §4 kill-immediately policy in the
// simulator: the job restarts from its last checkpoint; progress since
// then is redone.
func (s *simulator) killToLastCheckpoint(j *simJob, now time.Time) {
	s.integrate(j.machine, now)
	s.chargeProgress(j, now)
	s.stopTimers(j)
	s.rollback(j)
	j.meter.Preempted()
	s.requeue(j)
}

// rollback loses the job's work since its last checkpoint: it will be
// redone.
func (s *simulator) rollback(j *simJob) {
	if lost := j.lastCkptRemaining - j.remaining; lost > 0 {
		s.rep.workLost += lost
		j.remaining = j.lastCkptRemaining
	}
}

// requeue takes a job off its machine and puts it back at the end of its
// owner's queue.
func (s *simulator) requeue(j *simJob) {
	j.machine.foreign = nil
	j.machine.stopGrace()
	j.machine = nil
	j.state = jobQueued
	u := s.userOf(j.wj.User)
	u.queue = append(u.queue, j)
}

// stopGrace cancels a suspended job's pending grace expiry.
func (m *simMachine) stopGrace() {
	if m.graceTimer != nil {
		m.graceTimer.Stop()
		m.graceTimer = nil
	}
}

// complete finishes a job.
func (s *simulator) complete(j *simJob, now time.Time) {
	m := j.machine
	if m != nil {
		s.integrate(m, now)
	}
	s.chargeProgress(j, now)
	s.stopTimers(j)
	j.state = jobDone
	j.doneAt = now
	if m != nil {
		m.foreign = nil
		m.stopGrace()
	}
	j.machine = nil
	u := s.userOf(j.wj.User)
	u.inSystem--
}

// pollCycle is the coordinator's 2-minute cycle: feedback submissions,
// the policy round (Up-Down accounting and decision), grants and
// preemptions.
func (s *simulator) pollCycle(now time.Time) {
	// Closed-loop submissions stop at the window end.
	if now.Before(s.end) {
		for _, u := range s.users {
			if u.stream == nil {
				continue
			}
			for _, wj := range u.stream.Take(now, u.inSystem) {
				s.arrive(wj, now)
			}
		}
	}

	// Build the pool view. Each machine is a station; the user queues
	// live on their home machines.
	held := make(map[string]int, len(s.users))
	for _, m := range s.machines {
		if m.foreign != nil {
			held[s.userOf(m.foreign.wj.User).home]++
		}
	}
	views := make([]policy.StationView, 0, len(s.machines))
	for _, m := range s.machines {
		if m.down {
			continue // unreachable: the coordinator's poll would fail
		}
		v := policy.StationView{
			Name:         m.name,
			HeldMachines: held[m.name],
			AvgIdleLen:   m.idle.AvgIdleLen(),
			IdleStreak:   m.idle.IdleStreak(now),
		}
		switch {
		case m.foreign != nil && m.foreign.state == jobSuspended:
			v.State = proto.StationSuspended
		case m.foreign != nil:
			v.State = proto.StationClaimed
		case m.ownerActive:
			v.State = proto.StationOwner
		default:
			v.State = proto.StationIdle
		}
		if m.foreign != nil {
			v.ForeignJob = m.foreign.wj.ID
			v.ForeignOwner = s.userOf(m.foreign.wj.User).home
		}
		if u, ok := s.byHome[m.name]; ok {
			v.WaitingJobs = len(u.queue)
		}
		views = append(views, v)
	}
	s.cycles++
	var aud *decision.Builder
	if s.cfg.Audit != nil {
		aud = decision.NewBuilder(s.cycles, now)
	}
	dec := s.pol.Round(views, s.table, s.cfg.Policy, false, aud)
	perStation := make(map[string]int, 4)
	for _, g := range dec.Grants {
		u, ok := s.byHome[g.Requester]
		if !ok {
			continue
		}
		m := s.byName[g.Exec]
		if s.place(u, m, now) {
			perStation[g.Requester]++
		}
	}
	for _, n := range perStation {
		s.rep.PeakStationBurst = max(s.rep.PeakStationBurst, n)
	}
	for _, p := range dec.Preempts {
		m := s.byName[p.Exec]
		if m != nil && m.foreign != nil && m.foreign.state == jobRunning {
			s.ledger.Preempt(m.foreign.meter.Home)
			s.vacate(m.foreign, now)
		}
	}
	s.cfg.Audit.Record(aud.Done())
}

// crash takes the machine down: the resident job loses all progress
// since its last checkpoint and is requeued; the machine is unusable
// until repair, which finds the owner away. The idle history sees only
// owner flips and the repair, so an idle interval open at the crash
// stays open through the downtime.
func (s *simulator) crash(m *simMachine, r *sim.RNG, now time.Time) {
	s.integrate(m, now)
	m.down = true
	s.rep.Crashes++
	if j := m.foreign; j != nil {
		s.stopTimers(j)
		if j.state == jobRunning {
			s.chargeProgress(j, now)
		}
		// No chance to checkpoint: roll back to the last one.
		s.rollback(j)
		s.requeue(j)
	}
	repair := time.Duration(r.Exp(float64(s.cfg.CrashRepair)))
	s.engine.After(repair, func(t time.Time) {
		s.integrate(m, t)
		m.down = false
		m.ownerActive = false
		m.idle.Observe(true, t)
		next := time.Duration(r.Exp(float64(s.cfg.CrashMTBF)))
		s.engine.After(next, func(t2 time.Time) { s.crash(m, r, t2) })
	})
}

// sampleHour records the hourly series for Figures 3, 5, 6 and 7.
func (s *simulator) sampleHour(now time.Time) {
	if !now.Before(s.end) {
		return
	}
	local, remote := 0, 0
	for _, m := range s.machines {
		switch {
		case m.down:
		case m.ownerActive:
			local++
		case m.foreign != nil && m.foreign.state == jobRunning:
			remote++
		}
	}
	n := float64(len(s.machines))
	s.rep.LocalUtil.Observe(now, float64(local)/n)
	s.rep.SystemUtil.Observe(now, float64(local+remote)/n)

	total, light := 0, 0
	for _, u := range s.users {
		if u.inSystem < 0 {
			u.inSystem = 0
		}
		total += u.inSystem
		if !u.profile.Heavy() {
			light += u.inSystem
		}
	}
	s.rep.TotalQueue.Observe(now, float64(total))
	s.rep.LightQueue.Observe(now, float64(light))
}

// finalize integrates trailing machine state and computes the per-job
// and aggregate statistics.
func (s *simulator) finalize() {
	now := s.engine.Now()
	for _, m := range s.machines {
		s.integrate(m, now)
	}
	s.rep.collect(s)
}
