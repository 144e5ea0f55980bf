package ru

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/wire"
)

// recorder collects shadow events for assertions.
type recorder struct {
	mu          sync.Mutex
	done        []proto.JobDoneMsg
	vacated     []proto.JobVacatedMsg
	checkpoints []proto.JobCheckpointMsg
	suspends    []string
	resumes     []string
	lost        []error

	doneCh    chan proto.JobDoneMsg
	vacatedCh chan proto.JobVacatedMsg
	lostCh    chan error
	suspendCh chan string
	resumeCh  chan string
}

func newRecorder() *recorder {
	return &recorder{
		doneCh:    make(chan proto.JobDoneMsg, 4),
		vacatedCh: make(chan proto.JobVacatedMsg, 4),
		lostCh:    make(chan error, 4),
		suspendCh: make(chan string, 4),
		resumeCh:  make(chan string, 4),
	}
}

var _ Events = (*recorder)(nil)

func (r *recorder) JobDone(m proto.JobDoneMsg) {
	r.mu.Lock()
	r.done = append(r.done, m)
	r.mu.Unlock()
	r.doneCh <- m
}

func (r *recorder) JobVacated(m proto.JobVacatedMsg) {
	r.mu.Lock()
	r.vacated = append(r.vacated, m)
	r.mu.Unlock()
	r.vacatedCh <- m
}

func (r *recorder) JobCheckpointed(m proto.JobCheckpointMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkpoints = append(r.checkpoints, m)
}

func (r *recorder) JobSuspended(id string) {
	r.mu.Lock()
	r.suspends = append(r.suspends, id)
	r.mu.Unlock()
	select {
	case r.suspendCh <- id:
	default:
	}
}

func (r *recorder) JobResumed(id string) {
	r.mu.Lock()
	r.resumes = append(r.resumes, id)
	r.mu.Unlock()
	select {
	case r.resumeCh <- id:
	default:
	}
}

func (r *recorder) JobLost(id string, err error) {
	r.mu.Lock()
	r.lost = append(r.lost, err)
	r.mu.Unlock()
	r.lostCh <- err
}

func (r *recorder) numCheckpoints() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.checkpoints)
}

// site is one execution machine under test.
type site struct {
	starter *Starter
	monitor *machine.ScriptedMonitor
	server  *wire.Server
}

func newSite(t *testing.T, cfg StarterConfig) *site {
	t.Helper()
	return newSiteAt(t, "127.0.0.1:0", cfg)
}

// newSiteAt is newSite listening on addr (a restarted machine reuses its
// predecessor's address).
func newSiteAt(t *testing.T, addr string, cfg StarterConfig) *site {
	t.Helper()
	mon := machine.NewScriptedMonitor(false)
	if cfg.Monitor == nil {
		cfg.Monitor = mon
	}
	if cfg.Name == "" {
		cfg.Name = "exec1"
	}
	if cfg.ScanInterval == 0 {
		cfg.ScanInterval = 5 * time.Millisecond
	}
	if cfg.SuspendGrace == 0 {
		cfg.SuspendGrace = 40 * time.Millisecond
	}
	if cfg.StepsPerSlice == 0 {
		cfg.StepsPerSlice = 5_000
	}
	st, err := NewStarter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(addr, st.Handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return &site{starter: st, monitor: mon, server: srv}
}

func freshBlob(t *testing.T, jobID string, prog *cvm.Program) []byte {
	t.Helper()
	blob, err := InitialCheckpoint(ckpt.Meta{JobID: jobID, Owner: "tester"}, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func place(t *testing.T, s *site, jobID string, blob []byte, host cvm.SyscallHandler, rec *recorder) *Shadow {
	t.Helper()
	sh, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID:      jobID,
		Owner:      "tester",
		HomeHost:   "home",
		Checkpoint: blob,
	}, host, rec, PlaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func waitDone(t *testing.T, rec *recorder, timeout time.Duration) proto.JobDoneMsg {
	t.Helper()
	select {
	case m := <-rec.doneCh:
		return m
	case err := <-rec.lostCh:
		t.Fatalf("job lost instead of done: %v", err)
	case m := <-rec.vacatedCh:
		t.Fatalf("job vacated instead of done: %+v", m.Reason)
	case <-time.After(timeout):
		t.Fatal("timed out waiting for JobDone")
	}
	return proto.JobDoneMsg{}
}

func TestRemoteExecutionEndToEnd(t *testing.T) {
	s := newSite(t, StarterConfig{})
	host := cvm.NewMemHost()
	rec := newRecorder()
	sh := place(t, s, "job1", freshBlob(t, "job1", cvm.SumProgram(1000)), host, rec)
	done := waitDone(t, rec, 5*time.Second)
	if done.Faulted || done.ExitCode != 0 {
		t.Fatalf("done = %+v", done)
	}
	if got := strings.TrimSpace(host.Stdout()); got != "500500" {
		t.Fatalf("remote stdout (via shadow) = %q", got)
	}
	stats := sh.Stats()
	if stats.Syscalls == 0 {
		t.Fatal("shadow saw no syscalls; output must have flowed through it")
	}
	st := s.starter.Stats()
	if st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("starter stats = %+v", st)
	}
}

func TestRemoteFileIOThroughShadow(t *testing.T) {
	s := newSite(t, StarterConfig{})
	host := cvm.NewMemHost()
	content := strings.Repeat("condor hunts idle workstations\n", 10)
	host.SetFile("in", []byte(content))
	rec := newRecorder()
	place(t, s, "copy1", freshBlob(t, "copy1", cvm.FileCopyProgram("in", "out")), host, rec)
	done := waitDone(t, rec, 5*time.Second)
	if done.ExitCode != 0 {
		t.Fatalf("done = %+v", done)
	}
	out, ok := host.File("out")
	if !ok || string(out) != content {
		t.Fatalf("copy through shadow failed: ok=%v len=%d", ok, len(out))
	}
}

func TestPlacementRejectedWhenOwnerActive(t *testing.T) {
	s := newSite(t, StarterConfig{})
	s.monitor.SetActive(true)
	rec := newRecorder()
	_, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID:      "j",
		Checkpoint: freshBlob(t, "j", cvm.SpinProgram(10)),
	}, cvm.NewMemHost(), rec, PlaceConfig{})
	if !errors.Is(err, ErrPlacementRejected) {
		t.Fatalf("err = %v, want ErrPlacementRejected", err)
	}
	if s.starter.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v", s.starter.Stats())
	}
}

func TestPlacementRejectedWhenClaimed(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1000})
	rec := newRecorder()
	place(t, s, "long", freshBlob(t, "long", cvm.SpinProgram(50_000_000)), cvm.NewMemHost(), rec)
	rec2 := newRecorder()
	_, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID:      "second",
		Checkpoint: freshBlob(t, "second", cvm.SpinProgram(10)),
	}, cvm.NewMemHost(), rec2, PlaceConfig{})
	if !errors.Is(err, ErrPlacementRejected) {
		t.Fatalf("err = %v, want rejection while claimed", err)
	}
}

func TestPlacementRejectsCorruptCheckpoint(t *testing.T) {
	s := newSite(t, StarterConfig{})
	rec := newRecorder()
	_, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID:      "j",
		Checkpoint: []byte("garbage"),
	}, cvm.NewMemHost(), rec, PlaceConfig{})
	if !errors.Is(err, ErrPlacementRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestSuspendResumeCompletes(t *testing.T) {
	s := newSite(t, StarterConfig{
		SliceDelay:    time.Millisecond,
		StepsPerSlice: 2_000,
		SuspendGrace:  10 * time.Second, // grace long: must resume, not vacate
	})
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "j", freshBlob(t, "j", cvm.SumProgram(300_000)), host, rec)

	s.monitor.SetActive(true)
	select {
	case <-rec.suspendCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no suspend notice")
	}
	if !s.starter.Suspended() {
		t.Fatal("starter does not report suspended")
	}
	s.monitor.SetActive(false)
	select {
	case <-rec.resumeCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no resume notice")
	}
	done := waitDone(t, rec, 10*time.Second)
	if done.Faulted {
		t.Fatalf("done = %+v", done)
	}
	if got := strings.TrimSpace(host.Stdout()); got != "45000150000" {
		t.Fatalf("sum(300000) = %q", got)
	}
	st := s.starter.Stats()
	if st.Suspends == 0 || st.Resumes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGraceExpiryVacatesWithCheckpoint(t *testing.T) {
	s := newSite(t, StarterConfig{
		SliceDelay:    time.Millisecond,
		StepsPerSlice: 2_000,
		SuspendGrace:  30 * time.Millisecond,
	})
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "j", freshBlob(t, "j", cvm.SumProgram(1_000_000)), host, rec)
	time.Sleep(20 * time.Millisecond) // let it make progress
	s.monitor.SetActive(true)

	var vac proto.JobVacatedMsg
	select {
	case vac = <-rec.vacatedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no vacate after grace expiry")
	}
	if vac.Steps == 0 {
		t.Fatal("vacated with zero progress; expected mid-run checkpoint")
	}
	if !strings.Contains(vac.Reason, "owner returned") {
		t.Fatalf("reason = %q", vac.Reason)
	}

	// Re-place the checkpoint on a second machine; it must finish with
	// the correct answer and without redoing the work.
	s2 := newSite(t, StarterConfig{})
	rec2 := newRecorder()
	sh2 := place(t, s2, "j", vac.Checkpoint, host, rec2)
	done := waitDone(t, rec2, 10*time.Second)
	if done.Steps <= vac.Steps {
		t.Fatalf("resumed job reports %d steps, checkpoint had %d", done.Steps, vac.Steps)
	}
	if got := strings.TrimSpace(host.Stdout()); got != "500000500000" {
		t.Fatalf("sum(1e6) across migration = %q", got)
	}
	_ = sh2
}

func TestKillImmediatelyPolicyLosesOnlyTail(t *testing.T) {
	s := newSite(t, StarterConfig{
		Policy:             VacateKillImmediately,
		PeriodicCheckpoint: 10 * time.Millisecond,
		SliceDelay:         time.Millisecond,
		StepsPerSlice:      2_000,
	})
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "j", freshBlob(t, "j", cvm.SumProgram(2_000_000)), host, rec)

	// Wait for at least one periodic checkpoint, then owner returns.
	deadline := time.Now().Add(5 * time.Second)
	for rec.numCheckpoints() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint arrived")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.monitor.SetActive(true)
	var vac proto.JobVacatedMsg
	select {
	case vac = <-rec.vacatedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no immediate vacate under kill policy")
	}
	if !strings.Contains(vac.Reason, "killed") {
		t.Fatalf("reason = %q", vac.Reason)
	}
	if vac.Steps == 0 {
		t.Fatal("kill policy shipped the placement image despite periodic checkpoints")
	}
	// Under kill-immediately there is no fresh checkpoint: the job state
	// is the last periodic one. Resuming must still yield the answer.
	s2 := newSite(t, StarterConfig{})
	rec2 := newRecorder()
	place(t, s2, "j", vac.Checkpoint, host, rec2)
	waitDone(t, rec2, 10*time.Second)
	if got := strings.TrimSpace(host.Stdout()); got != "2000001000000" {
		t.Fatalf("sum(2e6) after kill/restore = %q", got)
	}
}

func TestCoordinatorStyleVacate(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	rec := newRecorder()
	place(t, s, "victim", freshBlob(t, "victim", cvm.SpinProgram(100_000_000)), cvm.NewMemHost(), rec)
	if ok := s.starter.Vacate("victim", "up-down preemption"); !ok {
		t.Fatal("Vacate refused")
	}
	select {
	case vac := <-rec.vacatedCh:
		if !strings.Contains(vac.Reason, "up-down") {
			t.Fatalf("reason = %q", vac.Reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no vacate")
	}
	if _, _, ok := s.starter.Running(); ok {
		t.Fatal("starter still claims a job after vacate")
	}
}

func TestVacateWrongJobIDRefused(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	rec := newRecorder()
	place(t, s, "jobX", freshBlob(t, "jobX", cvm.SpinProgram(100_000_000)), cvm.NewMemHost(), rec)
	if s.starter.Vacate("other", "nope") {
		t.Fatal("vacated a different job id")
	}
	if !s.starter.Vacate("", "any") {
		t.Fatal("empty id should match the resident job")
	}
}

func TestStarterCloseSignalsJobLost(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	rec := newRecorder()
	place(t, s, "j", freshBlob(t, "j", cvm.SpinProgram(100_000_000)), cvm.NewMemHost(), rec)
	// Simulate the execution machine crashing.
	s.server.Close()
	s.starter.Close()
	select {
	case <-rec.lostCh:
	case <-time.After(5 * time.Second):
		t.Fatal("shadow never learned the job was lost")
	}
}

func TestFaultReportedAsDone(t *testing.T) {
	s := newSite(t, StarterConfig{})
	prog := cvm.MustAssemble("crash", `
.text
start:
    MOVI r1, 1
    MOVI r2, 0
    DIV  r0, r1, r2
    HALT 0
`)
	rec := newRecorder()
	place(t, s, "j", freshBlob(t, "j", prog), cvm.NewMemHost(), rec)
	done := waitDone(t, rec, 5*time.Second)
	if !done.Faulted || !strings.Contains(done.FaultMsg, "division by zero") {
		t.Fatalf("done = %+v", done)
	}
	if s.starter.Stats().Faulted != 1 {
		t.Fatalf("stats = %+v", s.starter.Stats())
	}
}

func TestMonteCarloAnswerIdenticalAcrossMigrations(t *testing.T) {
	// A stochastic job checkpointed mid-run must produce the same answer
	// it would have produced uninterrupted, because the RNG state rides
	// in the checkpoint.
	reference := func() string {
		host := cvm.NewMemHost()
		v, err := cvm.New(cvm.MonteCarloPiProgram(150_000), host, cvm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := v.Run(100_000_000); st != cvm.StatusHalted || err != nil {
			t.Fatalf("st %v err %v", st, err)
		}
		return strings.TrimSpace(host.Stdout())
	}
	want := reference()

	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 50_000})
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "pi", freshBlob(t, "pi", cvm.MonteCarloPiProgram(150_000)), host, rec)
	time.Sleep(15 * time.Millisecond)
	if !s.starter.Vacate("pi", "migrate") {
		t.Fatal("vacate refused")
	}
	var vac proto.JobVacatedMsg
	select {
	case vac = <-rec.vacatedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no vacate")
	}
	s2 := newSite(t, StarterConfig{})
	rec2 := newRecorder()
	place(t, s2, "pi", vac.Checkpoint, host, rec2)
	waitDone(t, rec2, 10*time.Second)
	if got := strings.TrimSpace(host.Stdout()); got != want {
		t.Fatalf("migrated answer %q != uninterrupted answer %q", got, want)
	}
}

func TestInitialCheckpointMetaDefaults(t *testing.T) {
	prog := cvm.SumProgram(5)
	blob, err := InitialCheckpoint(ckpt.Meta{JobID: "j", Owner: "A"}, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, img, err := ckpt.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ProgramName != prog.Name || meta.TextChecksum != prog.TextChecksum() {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Sequence != 0 || img.Steps != 0 {
		t.Fatal("initial checkpoint must be sequence zero with no progress")
	}
}

func TestPlaceInputValidation(t *testing.T) {
	s := newSite(t, StarterConfig{})
	blob := freshBlob(t, "j", cvm.SpinProgram(1))
	if _, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{JobID: "j", Checkpoint: blob},
		nil, newRecorder(), PlaceConfig{}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{JobID: "j", Checkpoint: blob},
		cvm.NewMemHost(), nil, PlaceConfig{}); err == nil {
		t.Fatal("nil events accepted")
	}
	if _, err := Place(context.Background(), "127.0.0.1:1", proto.PlaceRequest{JobID: "j", Checkpoint: blob},
		cvm.NewMemHost(), newRecorder(), PlaceConfig{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestNewStarterRequiresMonitor(t *testing.T) {
	if _, err := NewStarter(StarterConfig{}); err == nil {
		t.Fatal("starter without monitor accepted")
	}
}
