package ru

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/wire"
)

// flakyHost wraps a MemHost and fails every syscall after a trigger is
// armed — simulating the submit machine becoming unreachable mid-run.
type flakyHost struct {
	inner *cvm.MemHost
	mu    sync.Mutex
	fail  bool
}

func (f *flakyHost) Syscall(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail {
		return cvm.SyscallReply{}, errors.New("injected shadow failure")
	}
	return f.inner.Syscall(req)
}

func (f *flakyHost) trip() {
	f.mu.Lock()
	f.fail = true
	f.mu.Unlock()
}

func TestShadowFailureDuringSyscallLosesNothingDurable(t *testing.T) {
	// The shadow's host starts failing mid-run. The executor sees the
	// syscall error propagate as a remote error; the job's own state
	// remains consistent: re-placing the job's last checkpoint against a
	// healthy host must still produce the right answer.
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 2_000})
	host := &flakyHost{inner: cvm.NewMemHost()}
	rec := newRecorder()
	blob := freshBlob(t, "j", cvm.SumProgram(2_000_000))
	sh, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID: "j", Owner: "t", HomeHost: "home", Checkpoint: blob,
	}, host, rec, PlaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond)
	host.trip() // the job's final print will fail on the shadow side

	// When the guest eventually issues its print, the shadow handler
	// errors; the executor gets a RemoteError host failure and drops the
	// connection, which the shadow reports as JobLost (after seeing no
	// terminal message) — or the remote error reaches the executor which
	// closes, same observable.
	select {
	case <-rec.lostCh:
	case m := <-rec.doneCh:
		// The print may have squeaked through before the trip; then the
		// run legitimately completed.
		if m.Faulted {
			t.Fatalf("guest faulted: %+v", m)
		}
		return
	case <-time.After(10 * time.Second):
		t.Fatal("neither loss nor completion observed")
	}
	_ = sh

	// Recovery: run the original placement blob on a fresh site with a
	// healthy host — the answer must be exact (restart from checkpoint).
	s2 := newSite(t, StarterConfig{})
	host2 := cvm.NewMemHost()
	rec2 := newRecorder()
	place(t, s2, "j", blob, host2, rec2)
	waitDone(t, rec2, 10*time.Second)
	if got := strings.TrimSpace(host2.Stdout()); got != "2000001000000" {
		t.Fatalf("recovered answer = %q", got)
	}
}

func TestSlowShadowSyscallTimesOutWithoutWedgingStarter(t *testing.T) {
	// A shadow that never answers one syscall: the executor's syscall
	// timeout must fire, the machine must free up for new placements.
	s := newSite(t, StarterConfig{
		SyscallTimeout: 50 * time.Millisecond,
		SliceDelay:     time.Millisecond,
		StepsPerSlice:  2_000,
	})
	block := make(chan struct{})
	stuck := cvm.SyscallHandlerFunc(func(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
		<-block
		return cvm.SyscallReply{}, nil
	})
	defer close(block)
	rec := newRecorder()
	place(t, s, "stuck", freshBlob(t, "stuck", cvm.SumProgram(1000)), stuck, rec)

	// The job needs a print syscall at the end; the handler blocks, the
	// executor times out, closes, and the shadow reports loss.
	select {
	case <-rec.lostCh:
	case <-time.After(10 * time.Second):
		t.Fatal("starter wedged on a slow shadow")
	}
	// The machine accepts a new job afterwards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, busy := s.starter.Running(); !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("machine still claimed by the stuck job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	host := cvm.NewMemHost()
	rec2 := newRecorder()
	place(t, s, "next", freshBlob(t, "next", cvm.SumProgram(100)), host, rec2)
	waitDone(t, rec2, 10*time.Second)
	if strings.TrimSpace(host.Stdout()) != "5050" {
		t.Fatalf("follow-up job broken: %q", host.Stdout())
	}
}

func TestTamperedCheckpointRejectedAtPlacement(t *testing.T) {
	s := newSite(t, StarterConfig{})
	blob := freshBlob(t, "j", cvm.SumProgram(10))
	blob[len(blob)-1] ^= 0xff // corrupt payload; CRC must catch it
	_, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID: "j", Checkpoint: blob,
	}, cvm.NewMemHost(), newRecorder(), PlaceConfig{})
	if !errors.Is(err, ErrPlacementRejected) {
		t.Fatalf("tampered checkpoint err = %v, want rejection", err)
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "bad checkpoint") {
		t.Fatalf("rejection reason opaque: %v", err)
	}
}

// hugeStackBlob is a plain checkpoint for prog whose StackCap, the last
// number of a Version 3 body, is rewritten to 1<<62 and the header
// re-framed (see docs/ASSEMBLY.md): the blob a hostile peer would send,
// since no encoder here writes one.
func hugeStackBlob(t *testing.T, jobID string, prog *cvm.Program) []byte {
	t.Helper()
	vm, err := cvm.New(prog, cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ckpt.EncodeBytes(ckpt.Meta{JobID: jobID, Owner: "tester"}, vm.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	const header = 28                      // magic, version, flags, payload length, body length, CRC
	defaultCap := []byte{0xfe, 0x20, 0x00} // 4096 words, zigzagged to 8192
	if !bytes.HasSuffix(blob, defaultCap) {
		t.Fatal("the body no longer ends with the default StackCap")
	}
	blob = append(blob[:len(blob)-len(defaultCap)], 0xf8, 0x80, 0, 0, 0, 0, 0, 0, 0) // zigzag(1<<62)
	n := uint32(len(blob) - header)
	binary.BigEndian.PutUint32(blob[16:], n)
	binary.BigEndian.PutUint32(blob[20:], n)
	crc := crc32.Update(crc32.ChecksumIEEE(blob[12:24]), crc32.IEEETable, blob[header:])
	binary.BigEndian.PutUint32(blob[24:], crc)
	return blob
}

// TestPlacementRefusesHugeStack: a checkpoint asking for a stack no
// station can allocate is refused with a reason, and the starter keeps
// serving placements.
func TestPlacementRefusesHugeStack(t *testing.T) {
	s := newSite(t, StarterConfig{})
	_, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
		JobID: "huge", Checkpoint: hugeStackBlob(t, "huge", cvm.SumProgram(10)),
	}, cvm.NewMemHost(), newRecorder(), PlaceConfig{})
	if !errors.Is(err, ErrPlacementRejected) || !strings.Contains(err.Error(), "stack") {
		t.Fatalf("err = %v, want a stack-capacity rejection", err)
	}
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "next", freshBlob(t, "next", cvm.SumProgram(100)), host, rec)
	waitDone(t, rec, 10*time.Second)
	if got := strings.TrimSpace(host.Stdout()); got != "5050" {
		t.Fatalf("follow-up job output = %q", got)
	}
}

func TestDoublePlacementRace(t *testing.T) {
	// Two shadows race to place different jobs on one starter; exactly
	// one must win, and the loser must get a clean rejection.
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	type result struct {
		sh  *Shadow
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			rec := newRecorder()
			jobID := []string{"race-a", "race-b"}[i]
			sh, err := Place(context.Background(), s.server.Addr(), proto.PlaceRequest{
				JobID:      jobID,
				Checkpoint: freshBlob(t, jobID, cvm.SpinProgram(200_000_000)),
			}, cvm.NewMemHost(), rec, PlaceConfig{})
			results <- result{sh: sh, err: err}
		}()
	}
	var wins, rejections int
	for i := 0; i < 2; i++ {
		r := <-results
		switch {
		case r.err == nil:
			wins++
			// The winner keeps the machine until both results are in: a
			// starter whose job's shadow hung up is free again at once.
			defer r.sh.Close()
		case errors.Is(r.err, ErrPlacementRejected):
			rejections++
		default:
			t.Fatalf("unexpected error: %v", r.err)
		}
	}
	if wins != 1 || rejections != 1 {
		t.Fatalf("wins=%d rejections=%d, want exactly one of each", wins, rejections)
	}
}

// TestSyscallEffectsNotDuplicatedAcrossMigration checks the §2.3
// deferred-checkpoint rule end to end: a job appends a line to a file on
// the submitting machine, then keeps computing; it is vacated and
// resumed elsewhere. Because checkpoints are only taken after the
// shadow's reply has been received, the append must appear exactly once
// — never zero times, never twice.
func TestSyscallEffectsNotDuplicatedAcrossMigration(t *testing.T) {
	prog := cvm.MustAssemble("append-once", `
.data
outname: .str "log"
line:    .str "checkpoint-me\n"
n:       .word 3000000
.text
start:
    MOVI r0, outname
    MOVI r1, 3
    MOVI r2, 4          ; FlagAppend
    SYS  open
    MOVI r9, 0
    JLT  r0, r9, fail
    MOV  r12, r0
    MOV  r0, r12
    MOVI r1, line
    MOVI r2, 14
    SYS  write
    JLT  r0, r9, fail
    MOV  r0, r12
    SYS  close
    ; now burn CPU so the vacate lands after the write
    MOVI r0, n
    LD   r2, [r0]
    MOVI r1, 0
loop:
    JGE  r1, r2, done
    ADDI r1, r1, 1
    JMP  loop
done:
    HALT 0
fail:
    HALT 1
`)
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 2_000})
	host := cvm.NewMemHost()
	rec := newRecorder()
	place(t, s, "once", freshBlob(t, "once", prog), host, rec)

	// Wait for the write to land, then vacate mid-loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, ok := host.File("log"); ok && len(data) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("append never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.starter.Vacate("once", "migrate") {
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
	place(t, s2, "once", vac.Checkpoint, host, rec2)
	done := waitDone(t, rec2, 10*time.Second)
	if done.Faulted || done.ExitCode != 0 {
		t.Fatalf("done = %+v", done)
	}
	data, _ := host.File("log")
	if got := strings.Count(string(data), "checkpoint-me"); got != 1 {
		t.Fatalf("append appeared %d times, want exactly once:\n%q", got, data)
	}
}

// TestHangupEndsSliceDelay: an executor pausing between slices must
// notice its shadow hanging up and free the machine at once, not sleep
// the pause out (an hour here) holding the job and the starter.
func TestHangupEndsSliceDelay(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Hour, StepsPerSlice: 1_000})
	rec := newRecorder()
	sh := place(t, s, "napper", freshBlob(t, "napper", cvm.SumProgram(2_000_000)), cvm.NewMemHost(), rec)
	if _, _, busy := s.starter.Running(); !busy {
		t.Fatal("job not resident after placement")
	}
	sh.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, busy := s.starter.Running(); !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("executor still sleeping out its slice delay after the shadow hung up")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlaceAcceptsJobThatFinishedBeforeItsReply plays the execution site
// by hand: on PlaceRequest it reports the job done and hangs up without
// ever writing a PlaceReply — what a real starter does when the executor
// outruns the goroutine that sends the reply. The done event proves the
// placement was accepted; Place must not turn it into a failed placement
// (the caller would requeue a job that has already completed).
func TestPlaceAcceptsJobThatFinishedBeforeItsReply(t *testing.T) {
	testOver := make(chan struct{})
	defer close(testOver)
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		return func(ctx context.Context, msg any) (any, error) {
			req := msg.(proto.PlaceRequest)
			if _, err := p.Call(ctx, proto.JobDoneMsg{JobID: req.JobID, ExitCode: 7}); err != nil {
				t.Errorf("executor's JobDone: %v", err)
			}
			p.Close()
			<-testOver // no reply while the test can still see one
			return nil, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := newRecorder()
	sh, err := Place(context.Background(), srv.Addr(), proto.PlaceRequest{
		JobID: "flash", Owner: "t", HomeHost: "home", Checkpoint: freshBlob(t, "flash", cvm.SumProgram(1)),
	}, cvm.NewMemHost(), rec, PlaceConfig{})
	if err != nil {
		t.Fatalf("Place = %v; the job's done event had already arrived", err)
	}
	if done := waitDone(t, rec, time.Second); done.ExitCode != 7 {
		t.Fatalf("done = %+v", done)
	}
	sh.Close()
	select {
	case err := <-rec.lostCh:
		t.Fatalf("completed job reported lost: %v", err)
	default:
	}
}
