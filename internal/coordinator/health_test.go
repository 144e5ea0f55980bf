package coordinator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/cvm"
	"condor/internal/decision"
	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/telemetry"
)

// scriptedStation is a fake station whose poll behaviour can be changed
// mid-test: up/down, slow, or byzantine reply mutation.
type scriptedStation struct {
	mu     sync.Mutex
	name   string
	up     bool
	mutate func(*proto.PollReply)
	polls  int
}

func (s *scriptedStation) set(up bool, mutate func(*proto.PollReply)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.up = up
	s.mutate = mutate
}

func (s *scriptedStation) handler(_ context.Context, msg any) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.polls++
	if _, ok := msg.(proto.PollRequest); !ok {
		return nil, errors.New("scripted station: only polls")
	}
	if !s.up {
		return nil, errors.New("scripted station: down")
	}
	reply := proto.PollReply{Name: s.name, State: proto.StationIdle}
	if s.mutate != nil {
		s.mutate(&reply)
	}
	return reply, nil
}

// healthPool wires n scripted stations into a manually cycled
// coordinator (PollInterval an hour, like newPool).
func healthPool(t *testing.T, names []string, cfg Config) (*Coordinator, map[string]*scriptedStation) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour
	}
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 5 * time.Second
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	scripted := make(map[string]*scriptedStation, len(names))
	for _, name := range names {
		st := &scriptedStation{name: name, up: true}
		srv := fakeStation(t, st.handler)
		scripted[name] = st
		coord.Register(name, srv.Addr())
	}
	return coord, scripted
}

func healthOf(c *Coordinator, name string) (proto.StationHealth, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.stations[name]
	if !ok {
		return 0, ""
	}
	return s.health.state, s.health.reason
}

// TestFlappingStationQuarantined is the regression for the
// consecutive-counter bug: a station alternating failure and success
// reset the old `failures` counter on every success and was never
// removed, while poisoning grant decisions each cycle. The sliding
// window sees the up/down signature and quarantines it as flapping.
func TestFlappingStationQuarantined(t *testing.T) {
	coord, scripted := healthPool(t, []string{"flappy"}, Config{DeadAfter: 100})
	flap := scripted["flappy"]
	down := false
	for i := 0; i < 12; i++ {
		flap.set(!down, nil)
		down = !down
		coord.Cycle()
		if st, _ := healthOf(coord, "flappy"); st == proto.HealthQuarantined {
			break
		}
	}
	st, reason := healthOf(coord, "flappy")
	if st != proto.HealthQuarantined {
		t.Fatalf("flapping station health = %v (%s), want quarantined", st, reason)
	}
	if !strings.HasPrefix(reason, "flap") {
		t.Fatalf("quarantine reason = %q, want flap:*", reason)
	}
	// Still registered: quarantine holds the station for probing rather
	// than deleting its identity and schedule index.
	if _, ok := coord.stations["flappy"]; !ok {
		t.Fatal("flapping station was removed, want quarantined but registered")
	}
}

func TestQuarantineProbeBackoffAndReadmission(t *testing.T) {
	coord, scripted := healthPool(t, []string{"ws1"}, Config{
		DeadAfter: 100,
		Health:    HealthConfig{ProbeBase: 5 * time.Millisecond, ProbeMax: 20 * time.Millisecond},
	})
	ws := scripted["ws1"]

	// Three consecutive misses push suspicion past the quarantine
	// threshold (0.5 → 0.75 → 0.875 ≥ 0.85).
	ws.set(false, nil)
	for i := 0; i < 3; i++ {
		coord.Cycle()
	}
	if st, reason := healthOf(coord, "ws1"); st != proto.HealthQuarantined {
		t.Fatalf("after 3 misses health = %v (%s), want quarantined", st, reason)
	}

	// While quarantined and not yet due, cycles must not poll it.
	coord.mu.Lock()
	coord.stations["ws1"].health.probeAt = time.Now().Add(time.Hour)
	coord.mu.Unlock()
	ws.mu.Lock()
	before := ws.polls
	ws.mu.Unlock()
	coord.Cycle()
	ws.mu.Lock()
	after := ws.polls
	ws.mu.Unlock()
	if after != before {
		t.Fatalf("quarantined station polled before probe due (%d → %d)", before, after)
	}

	// Station recovers; probes (due immediately now) must readmit it
	// after readmitAfter consecutive successes.
	ws.set(true, nil)
	coord.mu.Lock()
	coord.stations["ws1"].health.probeAt = time.Now()
	coord.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.Cycle()
		if st, _ := healthOf(coord, "ws1"); st == proto.HealthHealthy {
			break
		}
		if time.Now().After(deadline) {
			st, reason := healthOf(coord, "ws1")
			t.Fatalf("station not readmitted: health = %v (%s)", st, reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := coord.Stats().Readmissions; got != 1 {
		t.Fatalf("Readmissions = %d, want 1", got)
	}
	var sawReadmit bool
	for _, e := range coord.Events().Recent(0) {
		if e.Kind == eventlog.KindReadmit && e.Station == "ws1" {
			sawReadmit = true
		}
	}
	if !sawReadmit {
		t.Fatal("no readmit event logged")
	}
}

func TestByzantineReplyQuarantinesImmediately(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*proto.PollReply)
	}{
		{"wrong-name", func(r *proto.PollReply) { r.Name = "impostor" }},
		{"negative-capacity", func(r *proto.PollReply) { r.DiskFreeBytes = -1 }},
		{"negative-queue", func(r *proto.PollReply) { r.WaitingJobs = -3 }},
		{"impossible-state", func(r *proto.PollReply) { r.State = proto.StationState(99) }},
		{"unplaced-job", func(r *proto.PollReply) {
			r.State = proto.StationClaimed
			r.ForeignJob = "ghost/1"
			r.ForeignOwnerStation = "never-registered"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, scripted := healthPool(t, []string{"liar"}, Config{DeadAfter: 100})
			scripted["liar"].set(true, tc.mutate)
			coord.Cycle()
			st, reason := healthOf(coord, "liar")
			if st != proto.HealthQuarantined {
				t.Fatalf("health after byzantine reply = %v (%s), want quarantined", st, reason)
			}
			if !strings.HasPrefix(reason, "byzantine") {
				t.Fatalf("reason = %q, want byzantine:*", reason)
			}
			if got := coord.Stats().ByzantineReplies; got == 0 {
				t.Fatal("ByzantineReplies stat not counted")
			}
		})
	}
}

// TestForeignJobOfDeadHomeIsNotByzantine: a job's home station dying
// after placement is normal Condor life, not a lying exec station.
func TestForeignJobOfDeadHomeIsNotByzantine(t *testing.T) {
	coord, scripted := healthPool(t, []string{"home", "exec"}, Config{DeadAfter: 1})
	scripted["home"].set(false, nil) // home dies → removed after 1 miss
	scripted["exec"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationClaimed
		r.ForeignJob = "home/1"
		r.ForeignOwnerStation = "home"
	})
	coord.Cycle() // removes home, exec reply references its tombstone
	coord.Cycle()
	if st, reason := healthOf(coord, "exec"); st != proto.HealthHealthy {
		t.Fatalf("exec health = %v (%s), want healthy (home is a tombstone)", st, reason)
	}
}

// TestDegradedModeFreezesUpdown: with most of the pool dark the
// coordinator freezes index movement, and once the pool heals it
// resumes. DegradedCycles counts exactly the rounds it froze: not the
// cycle that leaves degraded mode, whose round moves indexes again.
func TestDegradedModeFreezesUpdown(t *testing.T) {
	coord, scripted := healthPool(t, []string{"ws1", "ws2", "ws3", "ws4"}, Config{
		DeadAfter: 100,
		// Quarantined stations are probed every cycle.
		Health: HealthConfig{ProbeBase: time.Nanosecond, ProbeMax: time.Nanosecond},
	})
	// ws1 keeps wanting capacity and holds none, so its index moves
	// every round that is not frozen.
	scripted["ws1"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationOwner
		r.WaitingJobs = 3
	})
	var frozenRounds uint64
	cycle := func() {
		before := coord.Index("ws1")
		coord.Cycle()
		if coord.Index("ws1") == before {
			frozenRounds++
		}
	}
	cycle()
	if frozenRounds != 0 || coord.Stats().DegradedCycles != 0 {
		t.Fatal("degraded before any station failed")
	}

	// Three of four stations go dark → 75% non-healthy > 50% threshold.
	for _, name := range []string{"ws2", "ws3", "ws4"} {
		scripted[name].set(false, nil)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if frozenRounds != 3 {
		t.Fatalf("%d of 3 dark rounds froze the index, want all 3", frozenRounds)
	}
	var entered bool
	for _, e := range coord.Events().Recent(0) {
		if e.Kind == eventlog.KindDegraded && strings.HasPrefix(e.Detail, "entered") {
			entered = true
		}
	}
	if !entered {
		t.Fatal("no degraded-entered event logged")
	}

	// Pool heals → degraded clears once the quarantined stations pass
	// their readmission probes, and indexes move again.
	for _, name := range []string{"ws2", "ws3", "ws4"} {
		scripted[name].set(true, nil)
	}
	for i := 0; ; i++ {
		if i == 10 {
			t.Fatal("coordinator never left degraded mode after heal")
		}
		cycle()
		coord.mu.Lock()
		degraded := coord.degraded
		coord.mu.Unlock()
		if !degraded {
			break
		}
	}
	frozen := frozenRounds
	cycle()
	if frozenRounds != frozen {
		t.Fatal("index still frozen after the pool healed")
	}
	if got := coord.Stats().DegradedCycles; got != frozenRounds {
		t.Fatalf("DegradedCycles = %d, want %d: the rounds whose index did not move", got, frozenRounds)
	}
}

func TestHealthStateSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DeadAfter: 100,
		StateDir:  dir,
		Health:    HealthConfig{ProbeBase: 5 * time.Millisecond, ProbeMax: 20 * time.Millisecond},
	}
	coord, scripted := healthPool(t, []string{"ws1"}, cfg)
	addr := coord.stations["ws1"].addr
	ws := scripted["ws1"]
	ws.set(false, nil)
	for i := 0; i < 3; i++ {
		coord.Cycle()
	}
	if st, _ := healthOf(coord, "ws1"); st != proto.HealthQuarantined {
		t.Fatalf("precondition: station not quarantined (%v)", st)
	}
	_, reasonBefore := healthOf(coord, "ws1")
	coord.Close() // kill mid-quarantine

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	st, reason := healthOf(restarted, "ws1")
	if st != proto.HealthQuarantined {
		t.Fatalf("health after restart = %v, want quarantined", st)
	}
	if reason != reasonBefore {
		t.Fatalf("reason after restart = %q, want %q", reason, reasonBefore)
	}
	if got := restarted.stations["ws1"].addr; got != addr {
		t.Fatalf("restored addr = %q, want %q", got, addr)
	}

	// The station must still earn readmission under the new incarnation.
	ws.set(true, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		restarted.Cycle()
		if st, _ := healthOf(restarted, "ws1"); st == proto.HealthHealthy {
			break
		}
		if time.Now().After(deadline) {
			st, reason := healthOf(restarted, "ws1")
			t.Fatalf("not readmitted after restart: %v (%s)", st, reason)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSuspectStationReceivesNoGrants(t *testing.T) {
	coord, scripted := healthPool(t, []string{"needy", "idle1"}, Config{DeadAfter: 100})
	scripted["needy"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationOwner
		r.WaitingJobs = 2
	})
	// idle1 flubs one poll → suspect (1 consecutive miss = 0.5 suspicion).
	scripted["idle1"].set(false, nil)
	coord.Cycle()
	if st, _ := healthOf(coord, "idle1"); st != proto.HealthSuspect {
		t.Fatalf("idle1 health = %v, want suspect", st)
	}
	// idle1 answers again but is still suspect (hysteresis) — it must
	// not be offered as a grant target.
	scripted["idle1"].set(true, nil)
	coord.Cycle()
	if st, _ := healthOf(coord, "idle1"); st != proto.HealthSuspect {
		t.Skip("station already readmitted; grant exclusion window closed")
	}
	if got := coord.Stats().Grants; got != 0 {
		t.Fatalf("Grants = %d, want 0 while only idle machine is suspect", got)
	}
}

// TestStallingRequesterCaptureBroken: a requester that answers polls
// with a job waiting but never answers a grant holds nothing, so Up-Down
// keeps it first, and with one grant a cycle it used to take every
// grant while an honest requester placed nothing on 4 idle machines. A
// grant that gets no reply is a failed contact of the requester, as a
// failed poll is: the staller drops out of the requester list as suspect
// and is then quarantined as flapping, and the honest requester places
// on every machine. A requester that answers the grant with an error has
// answered, and stays healthy.
func TestStallingRequesterCaptureBroken(t *testing.T) {
	for _, tc := range []struct {
		name       string
		stall      bool
		wantHealth proto.StationHealth
	}{
		{"no reply", true, proto.HealthQuarantined},
		{"error reply", false, proto.HealthHealthy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := New(Config{PollInterval: time.Hour, RPCTimeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)
			var mu sync.Mutex
			claimed := map[string]string{} // exec → the honest job it runs
			stop := make(chan struct{})
			staller := fakeStation(t, func(_ context.Context, msg any) (any, error) {
				if _, ok := msg.(proto.GrantRequest); !ok {
					return proto.PollReply{Name: "a-staller", State: proto.StationOwner, WaitingJobs: 1}, nil
				}
				if !tc.stall {
					return nil, errors.New("grant refused")
				}
				select {
				case <-stop:
				case <-time.After(time.Second):
				}
				return nil, errors.New("too late")
			})
			honest := fakeStation(t, func(_ context.Context, msg any) (any, error) {
				mu.Lock()
				defer mu.Unlock()
				if g, ok := msg.(proto.GrantRequest); ok {
					job := fmt.Sprintf("honest/%d", len(claimed)+1)
					claimed[g.ExecName] = job
					return proto.GrantReply{Used: true, JobID: job}, nil
				}
				return proto.PollReply{Name: "honest", State: proto.StationOwner, WaitingJobs: 4 - len(claimed)}, nil
			})
			t.Cleanup(func() { close(stop) })
			coord.Register("a-staller", staller.Addr())
			coord.Register("honest", honest.Addr())
			for i := 1; i <= 4; i++ {
				name := fmt.Sprintf("x%d", i)
				exec := fakeStation(t, func(_ context.Context, msg any) (any, error) {
					if _, ok := msg.(proto.PreemptRequest); ok {
						return proto.PreemptReply{}, nil
					}
					mu.Lock()
					defer mu.Unlock()
					if job := claimed[name]; job != "" {
						return proto.PollReply{Name: name, State: proto.StationClaimed,
							ForeignJob: job, ForeignOwnerStation: "honest"}, nil
					}
					return proto.PollReply{Name: name, State: proto.StationIdle}, nil
				})
				coord.Register(name, exec.Addr())
			}
			for i := 0; i < 10; i++ {
				coord.Cycle()
			}
			st, reason := healthOf(coord, "a-staller")
			if st != tc.wantHealth {
				t.Errorf("staller health = %v (%s), want %v", st, reason, tc.wantHealth)
			}
			if !tc.stall {
				return
			}
			mu.Lock()
			placed := len(claimed)
			mu.Unlock()
			if s := coord.Stats(); placed != 4 || s.GrantsUsed != 4 {
				t.Errorf("honest placed %d of 4 (%d grants, %d used, %d denied)",
					placed, s.Grants, s.GrantsUsed, s.GrantsDenied)
			}
			if !strings.HasPrefix(reason, "flap") {
				t.Errorf("staller quarantined for %q, want flap:*", reason)
			}
		})
	}
}

// TestStalledExecDoesNotQuarantineRequester: an execution machine that
// polls idle but never answers a PlaceRequest makes the requester's
// grant wait on it. The grant carries the coordinator's reply deadline,
// and the requester declines in time instead of going silent, so the
// honest requester is never booked a failed contact: it stays healthy
// through every cycle, and its job is back in the queue.
func TestStalledExecDoesNotQuarantineRequester(t *testing.T) {
	p := newPool(t, []string{"home"}, Config{RPCTimeout: 200 * time.Millisecond})
	p.monitors["home"].SetActive(true)
	jobID, err := p.stations["home"].Submit("u1", cvm.SumProgram(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	var places atomic.Int32
	stop := make(chan struct{})
	stuck := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		if _, ok := msg.(proto.PlaceRequest); ok {
			places.Add(1)
			select {
			case <-stop:
			case <-time.After(5 * time.Second):
			}
			return nil, errors.New("too late")
		}
		return proto.PollReply{Name: "a-stuck", State: proto.StationIdle}, nil
	})
	t.Cleanup(func() { close(stop) })
	p.coord.Register("a-stuck", stuck.Addr())
	for i := 0; i < 10; i++ {
		p.coord.Cycle()
		if st, reason := healthOf(p.coord, "home"); st != proto.HealthHealthy {
			t.Fatalf("cycle %d: home is %v (%s) for a placement a stuck exec never answered", i, st, reason)
		}
	}
	if places.Load() == 0 {
		t.Fatal("the stuck exec was never asked to place: the scenario did not run")
	}
	if s := p.coord.Stats(); s.GrantsUsed != 0 || s.GrantsDenied == 0 {
		t.Errorf("%d grants used, %d denied; want every grant declined", s.GrantsUsed, s.GrantsDenied)
	}
	if st, err := p.stations["home"].Job(jobID); err != nil || st.State != proto.JobIdle {
		t.Errorf("job after declined grants: %+v, %v; want idle", st, err)
	}
}

// TestProbeJitterBounds: probe backoff jitter, drawn from the station's
// own stream, stays within ±25%, and a backoff too short to jitter
// (ProbeBase 1 ns, from -poll 1ns) comes back unchanged.
func TestProbeJitterBounds(t *testing.T) {
	h := newHealth("ws1", time.Unix(0, 0))
	for _, d := range []time.Duration{time.Nanosecond, 2 * time.Nanosecond, time.Second} {
		hc := HealthConfig{ProbeBase: d, ProbeMax: d}
		for i := 0; i < 100; i++ {
			if got := hc.probeDelay(1, h.rand()); got < d-d/4 || got > d+d/4 {
				t.Fatalf("probe delay %v = %v, outside ±25%%", d, got)
			}
		}
	}
	hc := HealthConfig{ProbeBase: time.Nanosecond, ProbeMax: time.Nanosecond}
	for i := 0; i < 100; i++ {
		if got := hc.probeDelay(3, h.rand()); got != time.Nanosecond {
			t.Fatalf("1ns probe delay = %v, want it unjittered", got)
		}
	}
}

// TestProbeSchedule: with jitter centred, quarantine entry and failed
// probes wait ProbeBase doubling up to ProbeMax (the readmission probe,
// attempt 1, waits ProbeBase), and the scheduled probes stay within
// ±25% of that.
func TestProbeSchedule(t *testing.T) {
	cfg := Config{PollInterval: 10 * time.Second}
	cfg.sanitize()
	s := 10 * time.Second
	want := []time.Duration{s, 2 * s, 4 * s, 8 * s, 16 * s, 16 * s, 16 * s, 16 * s}
	for i, w := range want {
		if got := cfg.Health.probeDelay(i+1, 1<<63); got != w {
			t.Errorf("probe delay after backoff %d = %v, want %v", i+1, got, w)
		}
	}
	h := newHealth("ws1", time.Unix(0, 0))
	coord := &Coordinator{cfg: cfg}
	st := &station{name: "ws1", health: h}
	now := time.Unix(1000, 0)
	for i, w := range want {
		coord.backoffProbeLocked(st, now)
		if got := st.health.probeAt.Sub(now); got < w-w/4 || got > w+w/4 {
			t.Errorf("probe %d scheduled %v out, want %v ±25%%", i+1, got, w)
		}
	}
}

func BenchmarkHealthObserve(b *testing.B) {
	// The per-station scoring runs inside the cycle's result loop under
	// c.mu — it must stay allocation-free (see BENCH_baseline.json).
	slowRTT := 15 * time.Second / slowRTTDivisor
	h := newHealth("ws0001", time.Unix(0, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.observe(slowRTT, time.Duration(i%20)*time.Millisecond, i%7 != 0)
	}
	if h.wlen == 0 {
		b.Fatal("observe did nothing")
	}
}

// TestRoundGatesHealthInThePipeline: the coordinator hands every
// reachable station to the policy round with its health set, and the
// pipeline — the one health gate — keeps a suspect machine out of
// grants, shows it on the audit as a `health` rejection, and leaves a
// suspect machine's running foreign job alone even though the requester
// outranks its owner and nothing else is idle.
func TestRoundGatesHealthInThePipeline(t *testing.T) {
	rec := decision.NewRecorder(8)
	coord, scripted := healthPool(t, []string{"needy", "hog", "idle1", "busy1"},
		Config{DeadAfter: 100, Decisions: rec})
	scripted["needy"].set(true, func(r *proto.PollReply) {
		r.State, r.WaitingJobs = proto.StationOwner, 2
	})
	scripted["hog"].set(true, func(r *proto.PollReply) { r.State = proto.StationOwner })
	claimed := func(r *proto.PollReply) {
		r.State, r.ForeignJob, r.ForeignOwnerStation = proto.StationClaimed, "hog/1", "hog"
	}
	// Both machines flub one poll → suspect; they answer the next one
	// and stay suspect (leaving takes two clean polls).
	scripted["idle1"].set(false, nil)
	scripted["busy1"].set(false, nil)
	coord.Cycle()
	scripted["idle1"].set(true, nil)
	scripted["busy1"].set(true, claimed)
	// The policy package registered the family; this returns its series.
	deniedHealth := telemetry.Default.CounterVec("condor_policy_predicate_denied_total", "", "pred").With("updown/health")
	denied := func() float64 { return float64(deniedHealth.Value()) }
	before := denied()
	coord.Cycle()
	for _, name := range []string{"idle1", "busy1"} {
		if st, _ := healthOf(coord, name); st != proto.HealthSuspect {
			t.Fatalf("%s health = %v, want suspect", name, st)
		}
	}

	audits := rec.Snapshot()
	audit := audits[len(audits)-1]
	if audit.Stations != 4 {
		t.Errorf("audit saw %d stations, want all 4 reachable ones", audit.Stations)
	}
	var healthRejected []string
	for _, r := range audit.Rejections {
		if r.Predicate == "health" {
			healthRejected = append(healthRejected, r.Station)
			if r.Observed != "health suspect" {
				t.Errorf("health rejection observed %q, want %q", r.Observed, "health suspect")
			}
		}
	}
	if len(healthRejected) != 1 || healthRejected[0] != "idle1" {
		t.Errorf("health rejections = %v, want [idle1] (busy1 is claimed: the idle predicate speaks first)", healthRejected)
	}
	if len(audit.Requesters) != 1 || audit.Requesters[0].Requester != "needy" {
		t.Errorf("requesters = %+v, want only needy", audit.Requesters)
	}
	if len(audit.Grants) != 0 {
		t.Errorf("grants = %+v, want none: the only idle machine is suspect", audit.Grants)
	}
	// needy (denied) outranks hog (holding a machine) and no machine is
	// idle, so §2.4 looks for a victim — and must pass over busy1.
	if !coord.table.Better("needy", "hog") {
		t.Fatal("precondition: needy does not outrank hog")
	}
	for _, p := range audit.Preempts {
		if p.Exec != "" {
			t.Errorf("preempt ordered on %s, want suspect machines to keep their jobs", p.Exec)
		}
	}
	if st := coord.Stats(); st.Grants != 0 || st.Preempts != 0 {
		t.Errorf("stats: %d grants, %d preempts, want 0 and 0", st.Grants, st.Preempts)
	}
	if got := denied() - before; got != 1 {
		t.Errorf("updown/health deny counter moved by %v, want 1", got)
	}
}
