package coordinator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/accounting"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/telemetry"
	"condor/internal/trace"
	"condor/internal/wire"
)

// pool is a test harness: one coordinator and N stations with scripted
// monitors. The coordinator loop is driven manually via Cycle() so tests
// are deterministic.
type pool struct {
	coord    *Coordinator
	stations map[string]*schedd.Station
	monitors map[string]*machine.ScriptedMonitor
}

func newPool(t *testing.T, names []string, cfg Config) *pool {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Hour // loop effectively off; drive Cycle manually
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = time.Second
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	p := &pool{
		coord:    coord,
		stations: make(map[string]*schedd.Station, len(names)),
		monitors: make(map[string]*machine.ScriptedMonitor, len(names)),
	}
	for _, name := range names {
		mon := machine.NewScriptedMonitor(false)
		st, err := schedd.New(schedd.Config{
			Name:    name,
			Monitor: mon,
			Starter: ru.StarterConfig{
				ScanInterval:  3 * time.Millisecond,
				SuspendGrace:  20 * time.Millisecond,
				StepsPerSlice: 5_000,
				SliceDelay:    500 * time.Microsecond,
			},
			DialTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		if err := st.Register(coord.Addr()); err != nil {
			t.Fatal(err)
		}
		p.stations[name] = st
		p.monitors[name] = mon
	}
	return p
}

// cycleUntil drives coordinator cycles until cond or the deadline.
func (p *pool) cycleUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		p.coord.Cycle()
		time.Sleep(3 * time.Millisecond)
	}
}

func TestRegistrationViaWire(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	infos := p.coord.Stations()
	if len(infos) != 2 || infos[0].Name != "ws1" || infos[1].Name != "ws2" {
		t.Fatalf("stations = %+v", infos)
	}
}

func TestPollUpdatesPoolTable(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	// Both owners active: the poll must record the demand but no grant
	// is possible.
	p.monitors["ws1"].SetActive(true)
	p.monitors["ws2"].SetActive(true)
	if _, err := p.stations["ws1"].Submit("a", cvm.SumProgram(10), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < indexHistoryLen+3; i++ {
		p.coord.Cycle()
	}
	var ws1, ws2 proto.StationInfo
	for _, s := range p.coord.Stations() {
		switch s.Name {
		case "ws1":
			ws1 = s
		case "ws2":
			ws2 = s
		}
	}
	if ws1.State != proto.StationOwner || ws1.WaitingJobs != 1 {
		t.Fatalf("ws1 = %+v", ws1)
	}
	if ws2.State != proto.StationOwner {
		t.Fatalf("ws2 = %+v", ws2)
	}
	// Denied demand lowers ws1's Up-Down index by one per cycle, and the
	// pool table carries the newest indexHistoryLen values of it.
	if h := ws1.IndexHistory; len(h) != indexHistoryLen || h[0] != -4 || h[len(h)-1] != p.coord.Index("ws1") {
		t.Fatalf("ws1 index history = %v, want %d points from -4 to the current index %v",
			h, indexHistoryLen, p.coord.Index("ws1"))
	}
}

func TestGrantOwnIdleMachine(t *testing.T) {
	// A station that is itself idle may be granted its own machine — the
	// job runs "remotely" at home through the same RU path.
	p := newPool(t, []string{"ws1"}, Config{})
	jobID, err := p.stations["ws1"].Submit("a", cvm.SumProgram(20_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.cycleUntil(t, 20*time.Second, func() bool {
		status, err := p.stations["ws1"].Job(jobID)
		return err == nil && status.State == proto.JobCompleted
	})
	status, _ := p.stations["ws1"].Job(jobID)
	if status.ExecHost != "ws1" {
		t.Fatalf("exec host = %q, want ws1 itself", status.ExecHost)
	}
}

func TestEndToEndJobCompletion(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2", "ws3"}, Config{})
	jobID, err := p.stations["ws1"].Submit("alice", cvm.SumProgram(20_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan proto.JobStatus, 1)
	go func() {
		status, err := p.stations["ws1"].Wait(jobID, 30*time.Second)
		if err == nil {
			done <- status
		}
	}()
	p.cycleUntil(t, 20*time.Second, func() bool {
		select {
		case status := <-done:
			if status.State != proto.JobCompleted {
				t.Errorf("status = %+v", status)
			}
			if strings.TrimSpace(status.Stdout) != "200010000" {
				t.Errorf("stdout = %q", status.Stdout)
			}
			return true
		default:
			return false
		}
	})
	stats := p.coord.Stats()
	if stats.GrantsUsed == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestDecisionCyclePublishedOnce: every cycle puts exactly one
// decision-cycle event on the bus. An acting cycle's summary rides the
// eventlog's bus hook; an idle cycle's is published directly.
func TestDecisionCyclePublishedOnce(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	p.monitors["ws1"].SetActive(true)
	if _, err := p.stations["ws1"].Submit("a", cvm.SumProgram(100), 0); err != nil {
		t.Fatal(err)
	}
	sub := telemetry.Events.Subscribe(0)
	defer sub.Close()
	p.coord.Cycle() // grants ws2 to ws1's job
	p.coord.Cycle() // nothing left to grant
	perCycle := map[string]int{}
	for ev, ok := sub.TryNext(); ok; ev, ok = sub.TryNext() {
		if ev.Source == "coordinator" && ev.Kind == "decision-cycle" {
			perCycle[strings.SplitN(ev.Detail, " (", 2)[0]]++
		}
	}
	if grants := p.coord.Stats().Grants; grants != 1 || len(perCycle) != 2 || perCycle["cycle 1"] != 1 || perCycle["cycle 2"] != 1 {
		t.Fatalf("%d grants; decision-cycle events per cycle = %v, want one each for cycles 1 and 2", grants, perCycle)
	}
}

func TestGrantSkipsOwnerActiveStations(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	p.monitors["ws2"].SetActive(true) // only possible exec site is busy
	p.monitors["ws1"].SetActive(true) // and the submitter itself is busy
	if _, err := p.stations["ws1"].Submit("a", cvm.SumProgram(100), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.coord.Cycle()
	}
	if got := p.coord.Stats().Grants; got != 0 {
		t.Fatalf("grants = %d, want 0 (nothing idle)", got)
	}
}

func TestUpDownPreemptionServesLightUser(t *testing.T) {
	// heavy (ws1) fills both exec machines; light (ws2) then submits one
	// job. With nothing idle, the coordinator must preempt one of
	// heavy's jobs and give the machine to light.
	p := newPool(t, []string{"ws1", "ws2", "e1", "e2"}, Config{
		Policy: policy.Config{MaxGrantsPerCycle: 2, MaxPreemptsPerCycle: 1},
	})
	heavy := p.stations["ws1"]
	light := p.stations["ws2"]
	// The exec machines' "owners" are away; ws1+ws2 owners are active so
	// their own machines are not grant targets.
	p.monitors["ws1"].SetActive(true)
	p.monitors["ws2"].SetActive(true)

	for i := 0; i < 4; i++ {
		if _, err := heavy.Submit("heavy", cvm.SumProgram(500_000_000), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Let heavy occupy both machines.
	p.cycleUntil(t, 20*time.Second, func() bool {
		claimed := 0
		for _, s := range p.coord.Stations() {
			if s.Name == "e1" || s.Name == "e2" {
				if s.State == proto.StationClaimed {
					claimed++
				}
			}
		}
		return claimed == 2
	})

	lightJob, err := light.Submit("light", cvm.SumProgram(20_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan proto.JobStatus, 1)
	go func() {
		status, err := light.Wait(lightJob, 60*time.Second)
		if err == nil {
			done <- status
		}
	}()
	p.cycleUntil(t, 40*time.Second, func() bool {
		select {
		case status := <-done:
			if status.State != proto.JobCompleted {
				t.Errorf("light job = %+v", status)
			}
			return true
		default:
			return false
		}
	})
	if p.coord.Stats().Preempts == 0 {
		t.Fatal("light user was served without any preemption — test premise broken")
	}
	// Heavy's preempted job must be back in its queue (idle) or running
	// again, never lost.
	lostOK := false
	for _, j := range heavy.Queue() {
		if j.State == proto.JobIdle || j.State == proto.JobRunning ||
			j.State == proto.JobSuspendedState || j.State == proto.JobPlacing {
			lostOK = true
		}
	}
	if !lostOK {
		t.Fatalf("heavy queue = %+v", heavy.Queue())
	}
}

func TestCoordinatorSurvivesStationDeath(t *testing.T) {
	p := newPool(t, []string{"ws1", "ws2"}, Config{DeadAfter: 2})
	p.stations["ws2"].Close()
	p.coord.Cycle()
	p.coord.Cycle()
	infos := p.coord.Stations()
	if len(infos) != 1 || infos[0].Name != "ws1" {
		t.Fatalf("stations after death = %+v", infos)
	}
	if p.coord.Stats().PollFails == 0 {
		t.Fatal("poll failures not counted")
	}
	if h := p.coord.led.Sampler().Last(indexSeries("ws2"), -1); h != nil {
		t.Fatalf("unregistered station kept its index series %v", h)
	}
}

func TestStationsSurviveCoordinatorDeath(t *testing.T) {
	// The paper's resilience claim: jobs already running are unaffected
	// by coordinator failure.
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	jobID, err := p.stations["ws1"].Submit("a", cvm.SumProgram(200_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.cycleUntil(t, 20*time.Second, func() bool {
		status, err := p.stations["ws1"].Job(jobID)
		return err == nil && status.State == proto.JobRunning
	})
	p.coord.Close() // coordinator dies mid-execution
	status, err := p.stations["ws1"].Wait(jobID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != proto.JobCompleted {
		t.Fatalf("job did not complete after coordinator death: %+v", status)
	}
}

func TestPoolStatusOverWire(t *testing.T) {
	p := newPool(t, []string{"ws1"}, Config{})
	p.coord.Cycle()
	peer, err := wire.Dial(p.coord.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.PoolStatusRequest{})
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := reply.(proto.PoolStatusReply)
	if !ok || len(sr.Stations) != 1 || sr.Stations[0].Name != "ws1" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestRegisterValidation(t *testing.T) {
	p := newPool(t, nil, Config{})
	peer, err := wire.Dial(p.coord.Addr(), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := peer.Call(ctx, proto.RegisterRequest{}); err == nil {
		t.Fatal("empty registration accepted")
	}
}

func TestGrantReconsideredNextCycleWhenUnused(t *testing.T) {
	// ws1 wants capacity but its queue empties before the grant lands
	// (we remove the job). The grant is unused; next cycle, state must
	// be consistent (no phantom claims).
	p := newPool(t, []string{"ws1", "ws2"}, Config{})
	jobID, err := p.stations["ws1"].Submit("a", cvm.SumProgram(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinator learns ws1 wants capacity.
	// Remove the job before any grant can be used.
	p.stations["ws1"].Remove(jobID)
	for i := 0; i < 3; i++ {
		p.coord.Cycle()
	}
	for _, s := range p.coord.Stations() {
		if s.State == proto.StationClaimed {
			t.Fatalf("phantom claim: %+v", s)
		}
	}
}

func TestCoordinatorRestartRediscoversPoolViaRegistrar(t *testing.T) {
	// A coordinator dies and a replacement starts at the same address.
	// Stations running StartRegistrar must re-register on their own once
	// polls stop arriving — the §2.1 recovery story with no manual step.
	coord1, err := New(Config{PollInterval: 10 * time.Millisecond, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := coord1.Addr()

	st, err := schedd.New(schedd.Config{
		Name:    "wsR",
		Monitor: machine.NewScriptedMonitor(false),
		Starter: ru.StarterConfig{ScanInterval: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	stop, err := st.StartRegistrar(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	if got := coord1.Stations(); len(got) != 1 {
		t.Fatalf("initial registration missing: %+v", got)
	}
	coord1.Close()

	// Replacement on the same port. (Bind may need a few retries while
	// the old listener drains.)
	var coord2 *Coordinator
	deadline := time.Now().Add(5 * time.Second)
	for {
		coord2, err = New(Config{PollInterval: 10 * time.Millisecond, ListenAddr: addr})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement coordinator never bound: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(coord2.Close)

	// The registrar notices missing polls (3×10ms) and re-registers.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if infos := coord2.Stations(); len(infos) == 1 && infos[0].Name == "wsR" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("station never re-registered with the replacement coordinator")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracesAccountingConcurrentReaders answers TracesRequest and
// AccountingRequest for 50 simultaneous readers while writers keep
// recording spans and metering jobs. Every reply must decode — a
// snapshot torn by a concurrent writer would not marshal to valid JSON.
func TestTracesAccountingConcurrentReaders(t *testing.T) {
	p := newPool(t, nil, Config{})

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for i := 0; i < 4; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := trace.StartRoot("conc-span")
				sp.SetJob(fmt.Sprintf("conc-job-%d-%d", i, n))
				sp.SetAttr("writer", fmt.Sprintf("%d", i))
				sp.Finish()
				jobID := fmt.Sprintf("conc-acct-%d-%d", i, n%8)
				m := accounting.Default.Job(jobID, "conc", "ws0")
				m.ExecTime(time.Microsecond)
				m.Syscall(64, time.Microsecond)
				if n%8 == 7 {
					accounting.Default.Retire(jobID)
				}
				// Throttle: the writers' job is to race the readers, not
				// to make each reply as expensive as possible.
				time.Sleep(200 * time.Microsecond)
			}
		}(i)
	}

	const readers = 50
	var rg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			peer, err := wire.Dial(p.coord.Addr(), 5*time.Second, nil)
			if err != nil {
				errs <- err
				return
			}
			defer peer.Close()
			for n := 0; n < 4; n++ {
				for _, req := range []any{proto.TracesRequest{}, proto.AccountingRequest{}} {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					reply, err := peer.Call(ctx, req)
					cancel()
					if err != nil {
						errs <- fmt.Errorf("%T under load: %w", req, err)
						return
					}
					switch reply.(type) {
					case proto.TracesReply, proto.AccountingReply:
					default:
						errs <- fmt.Errorf("%T: unexpected reply %T", req, reply)
						return
					}
				}
			}
		}()
	}
	rg.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolStatusReadinessIsThisCoordinators: two coordinators in one
// process, one unready because its state saves fail. Each
// PoolStatusReply carries its own coordinator's readiness only: the
// ready one reports no failure, and the other names itself.
func TestPoolStatusReadinessIsThisCoordinators(t *testing.T) {
	good, err := New(Config{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	bad, err := New(Config{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.journalHealthy.Store(false) // what a failed state save leaves
	if bad.Ready() == nil {
		t.Fatal("a coordinator whose saves fail reports ready")
	}

	readyFailures := func(c *Coordinator) []string {
		peer, err := wire.Dial(c.Addr(), time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		reply, err := peer.Call(ctx, proto.PoolStatusRequest{})
		if err != nil {
			t.Fatal(err)
		}
		sr := reply.(proto.PoolStatusReply)
		if want := time.Hour.Milliseconds(); sr.Coordinator.PollIntervalMillis != want {
			t.Errorf("PollIntervalMillis = %d, want %d", sr.Coordinator.PollIntervalMillis, want)
		}
		return sr.Coordinator.ReadyFailures
	}
	if f := readyFailures(good); len(f) != 0 {
		t.Errorf("the ready coordinator reports %q", f)
	}
	f := readyFailures(bad)
	if want := "coordinator@" + bad.Addr() + ": journal unhealthy"; len(f) != 1 || !strings.HasPrefix(f[0], want) {
		t.Errorf("the unready coordinator reports %q, want one line starting %q", f, want)
	}
}
