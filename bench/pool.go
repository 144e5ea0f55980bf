package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"condor/internal/coordinator"
	"condor/internal/decision"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/ru"
	"condor/internal/schedd"
)

// poolSpec describes one loopback pool. Every timer that plays no part
// in a workload (poll loop, owner scan, placement heartbeat, periodic
// checkpoint) is set long or off, so idle wake-ups add no noise: the
// harness drives cycles itself.
type poolSpec struct {
	stations int
	// ownerActive marks stations whose owner is present (nil = none).
	ownerActive []bool
	// stepsPerSlice / sliceDelay shape foreign-job execution on every
	// station (0 = the starter's defaults: 200k steps, no delay).
	stepsPerSlice uint64
	sliceDelay    time.Duration
	maxGrants     int
	// stateDir enables the coordinator journal with its default fsync.
	stateDir string
	// hosts builds every station's per-job syscall handlers (nil = the
	// default private MemHost).
	hosts schedd.HostFactory
}

// pool is a live coordinator plus stations on loopback TCP, built from
// the same constructors the daemons use.
type pool struct {
	coord     *coordinator.Coordinator
	stations  []*schedd.Station
	byName    map[string]*schedd.Station
	decisions *decision.Recorder
}

// poolSeq numbers the pools of this process. Station names carry it, so
// job ids never repeat across pools: the process ledger interns meters
// by job id, and a job left running when its pool closed would otherwise
// lend its meter to the next pool's job of the same name.
var poolSeq atomic.Int64

// newPool builds the pool, registers every station and runs one warm
// cycle, so pooled connections are dialed before anything is timed.
func newPool(spec poolSpec) (*pool, error) {
	p := &pool{
		byName:    make(map[string]*schedd.Station, spec.stations),
		decisions: decision.NewRecorder(decision.DefaultCapacity),
	}
	seq := poolSeq.Add(1)
	coord, err := coordinator.New(coordinator.Config{
		PollInterval: time.Hour,
		// Preemption is off in every workload: the harness vacates
		// explicitly where a workload wants migrations.
		Policy:    policy.Config{MaxGrantsPerCycle: spec.maxGrants, Placement: policy.PlaceFirstFit},
		StateDir:  spec.stateDir,
		Decisions: p.decisions,
	})
	if err != nil {
		return nil, err
	}
	p.coord = coord
	for i := 0; i < spec.stations; i++ {
		active := spec.ownerActive != nil && spec.ownerActive[i]
		cfg := schedd.Config{
			Name:    fmt.Sprintf("p%d-ws%03d", seq, i),
			Monitor: machine.NewScriptedMonitor(active),
			Starter: ru.StarterConfig{
				ScanInterval:  time.Hour,
				StepsPerSlice: spec.stepsPerSlice,
				SliceDelay:    spec.sliceDelay,
			},
			PlacementHeartbeat: -1,
			Hosts:              spec.hosts,
		}
		st, err := schedd.New(cfg)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.stations = append(p.stations, st)
		p.byName[st.Name()] = st
		if err := st.Register(coord.Addr()); err != nil {
			p.Close()
			return nil, err
		}
	}
	coord.Cycle()
	return p, nil
}

// Close stops the stations, then the coordinator.
func (p *pool) Close() {
	for _, st := range p.stations {
		st.Close()
	}
	if p.coord != nil {
		p.coord.Close()
	}
}

// cycleRec is one timed Coordinator.Cycle call.
type cycleRec struct {
	start  time.Time
	dur    time.Duration
	grants uint64 // grants issued by this cycle
	span   int    // harness span id (0 when untraced)
}

// cycleDriver is the second load goroutine: it calls Cycle back-to-back
// (closed loop: the next cycle starts when the previous returns) for as
// long as demand() holds, and sleeps on kick otherwise, so scheduler
// cost, not a timer, bounds placement throughput.
type cycleDriver struct {
	p      *pool
	rec    *recorder
	demand func() bool
	kick   chan struct{}
	stop   chan struct{}
	done   chan struct{}

	// cycles belongs to whichever goroutine calls cycleOnce; halt reads
	// it only after the loop has exited.
	cycles []cycleRec
}

func startCycleDriver(p *pool, rec *recorder, demand func() bool) *cycleDriver {
	d := &cycleDriver{
		p: p, rec: rec, demand: demand,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go d.loop()
	return d
}

func (d *cycleDriver) loop() {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		if !d.demand() {
			select {
			case <-d.kick:
			case <-d.stop:
				return
			}
			continue
		}
		d.cycleOnce()
	}
}

// cycleOnce runs and times one cycle; pool-scale calls it directly.
func (d *cycleDriver) cycleOnce() {
	before := d.p.coord.Stats().Grants
	start := time.Now()
	d.p.coord.Cycle()
	end := time.Now()
	c := cycleRec{start: start, dur: end.Sub(start), grants: d.p.coord.Stats().Grants - before}
	c.span = d.rec.add("cycle", "", d.rec.rootID(), start, end)
	d.cycles = append(d.cycles, c)
}

// wake tells the driver demand may have changed.
func (d *cycleDriver) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// halt stops the driver, waits for it, and returns its cycles.
func (d *cycleDriver) halt() []cycleRec {
	close(d.stop)
	<-d.done
	return d.cycles
}
