package ru

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/cvm"
	"condor/internal/proto"
	"condor/internal/wire"
)

// linkCounts reads the placement-link counters.
func linkCounts() (dialed, reused uint64) {
	return mLinksDialed.Value(), mLinksReused.Value()
}

// wantLinks fails unless the counters moved by exactly dialed and reused
// since d0/r0.
func wantLinks(t *testing.T, d0, r0, dialed, reused uint64) {
	t.Helper()
	d, r := linkCounts()
	if d-d0 != dialed || r-r0 != reused {
		t.Fatalf("links dialed %d reused %d, want %d and %d", d-d0, r-r0, dialed, reused)
	}
}

// runOnce places a one-instruction job on s and waits for it to finish.
func runOnce(t *testing.T, s *site, jobID string) *Shadow {
	t.Helper()
	rec := newRecorder()
	sh := place(t, s, jobID, freshBlob(t, jobID, cvm.SpinProgram(1)), cvm.NewMemHost(), rec)
	waitDone(t, rec, 5*time.Second)
	return sh
}

func TestLinkSequentialPlacementsDialOnce(t *testing.T) {
	s := newSite(t, StarterConfig{})
	d0, r0 := linkCounts()
	const n = 5
	for i := 0; i < n; i++ {
		runOnce(t, s, fmt.Sprintf("seq/%d", i))
	}
	wantLinks(t, d0, r0, 1, n-1)
	if st := s.starter.Stats(); st.Accepted != n || st.Completed != n {
		t.Fatalf("starter stats = %+v", st)
	}
}

func TestLinkRedialsAfterExecRestart(t *testing.T) {
	s := newSite(t, StarterConfig{})
	addr := s.server.Addr()
	runOnce(t, s, "before")
	idleLinks.Lock()
	old := idleLinks.m[linkKey{addr: addr}]
	idleLinks.Unlock()
	if old == nil {
		t.Fatal("no idle link after the job finished")
	}
	s.server.Close()
	s.starter.Close()
	<-old.peer.Done()

	s2 := newSiteAt(t, addr, StarterConfig{})
	d0, r0 := linkCounts()
	runOnce(t, s2, "after")
	wantLinks(t, d0, r0, 1, 0)
}

// TestLinkFallsBackWhenIdleLinkDied parks a dead link in the idle pool,
// as if its reader had not been noticed yet: the handshake never leaves
// on it, so the placement moves to a fresh dial and succeeds.
func TestLinkFallsBackWhenIdleLinkDied(t *testing.T) {
	s := newSite(t, StarterConfig{})
	key := linkKey{addr: s.server.Addr()}
	peer, err := wire.Dial(key.addr, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer.Close()
	idleLinks.Lock()
	idleLinks.m[key] = &link{key: key, peer: peer}
	idleLinks.Unlock()

	d0, r0 := linkCounts()
	runOnce(t, s, "fresh")
	wantLinks(t, d0, r0, 1, 0)
}

// placeSpin places a one-instruction job on the site at addr.
func placeSpin(t *testing.T, addr, jobID string, rec *recorder) (*Shadow, error) {
	t.Helper()
	return Place(context.Background(), addr, proto.PlaceRequest{
		JobID: jobID, Checkpoint: freshBlob(t, jobID, cvm.SpinProgram(1)),
	}, cvm.NewMemHost(), rec, PlaceConfig{})
}

// fakeExec plays an execution site by hand. The job named "first" ends at
// once (JobDone, then an accepting reply, so its link goes back idle);
// every other PlaceRequest is served by next. The test places "first"
// before anything else, so later placements ride its link.
func fakeExec(t *testing.T, next func(ctx context.Context, p *wire.Peer, req proto.PlaceRequest) (any, error)) string {
	t.Helper()
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		return func(ctx context.Context, msg any) (any, error) {
			req := msg.(proto.PlaceRequest)
			if req.JobID != "first" {
				return next(ctx, p, req)
			}
			_, err := p.Call(ctx, proto.JobDoneMsg{JobID: req.JobID})
			return proto.PlaceReply{Accepted: true}, err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rec := newRecorder()
	if _, err := placeSpin(t, srv.Addr(), "first", rec); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rec, time.Second)
	return srv.Addr()
}

// TestLinkNeverResendsAWrittenHandshake: a reused link that dies after
// the PlaceRequest was written fails the placement; the request is not
// sent again on a fresh dial, because the machine may have taken it.
func TestLinkNeverResendsAWrittenHandshake(t *testing.T) {
	var seen atomic.Int32
	addr := fakeExec(t, func(_ context.Context, p *wire.Peer, _ proto.PlaceRequest) (any, error) {
		seen.Add(1)
		p.Close() // took the request, never replied
		return nil, nil
	})
	d0, r0 := linkCounts()
	if _, err := placeSpin(t, addr, "second", newRecorder()); err == nil {
		t.Fatal("placement whose reply never came succeeded")
	}
	if n := seen.Load(); n != 1 {
		t.Fatalf("the machine saw the handshake %d times, want once", n)
	}
	wantLinks(t, d0, r0, 0, 1)
}

// TestLinkDropsStaleMessages plays an execution site whose previous job
// still talks after the link carries the next one: a late one-way notice
// and a late syscall naming the old job. Neither may reach the new
// shadow; the notice is dropped, the request refused, both counted.
func TestLinkDropsStaleMessages(t *testing.T) {
	syscallErr := make(chan error, 1)
	addr := fakeExec(t, func(ctx context.Context, p *wire.Peer, _ proto.PlaceRequest) (any, error) {
		_ = p.Notify(proto.JobSuspendedMsg{JobID: "first"})
		_, err := p.Call(ctx, proto.SyscallMsg{JobID: "first",
			Req: cvm.SyscallRequest{Num: cvm.SysPrint, Data: []byte("stale\n")}})
		syscallErr <- err
		return proto.PlaceReply{Accepted: true}, nil
	})
	stale0 := mLinkStale.Value()
	d0, r0 := linkCounts()
	sys0 := jobSyscalls("next")
	rec := newRecorder()
	sh, err := placeSpin(t, addr, "next", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	wantLinks(t, d0, r0, 0, 1)

	var remote *wire.RemoteError
	if err := <-syscallErr; !errors.As(err, &remote) {
		t.Fatalf("stale syscall answered with %v, want a refusal", err)
	}
	for deadline := time.Now().Add(5 * time.Second); mLinkStale.Value()-stale0 < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := mLinkStale.Value() - stale0; n != 2 {
		t.Fatalf("stale messages counted %d, want 2", n)
	}
	select {
	case id := <-rec.suspendCh:
		t.Fatalf("notice for %q delivered to the new shadow", id)
	default:
	}
	if n := jobSyscalls("next") - sys0; n != 0 {
		t.Fatalf("new shadow served %d syscalls of the old job", n)
	}
}

// TestLinkCloseOfReleasedShadowSparesNextJob: removing a job whose shadow
// already handed its link back must not cut the job that link carries
// now.
func TestLinkCloseOfReleasedShadowSparesNextJob(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	first := runOnce(t, s, "first")
	d0, r0 := linkCounts()
	rec := newRecorder()
	next := place(t, s, "next", freshBlob(t, "next", cvm.SpinProgram(200_000_000)), cvm.NewMemHost(), rec)
	defer next.Close()
	wantLinks(t, d0, r0, 0, 1)

	first.Close()
	select {
	case err := <-rec.lostCh:
		t.Fatalf("closing the finished job's shadow lost the next job: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if id, _, ok := s.starter.Running(); !ok || id != "next" {
		t.Fatalf("running = %q, %v; want next", id, ok)
	}
}

func TestLinkJobLostWhenStarterAbortsOnReusedLink(t *testing.T) {
	s := newSite(t, StarterConfig{SliceDelay: time.Millisecond, StepsPerSlice: 1_000})
	runOnce(t, s, "first")
	d0, r0 := linkCounts()
	rec := newRecorder()
	place(t, s, "next", freshBlob(t, "next", cvm.SpinProgram(200_000_000)), cvm.NewMemHost(), rec)
	wantLinks(t, d0, r0, 0, 1)
	s.starter.Close()
	select {
	case <-rec.lostCh:
	case <-time.After(5 * time.Second):
		t.Fatal("shadow never learned the job was lost")
	}
}

func TestLinkRejectedPlacementReturnsLink(t *testing.T) {
	s := newSite(t, StarterConfig{})
	s.monitor.SetActive(true)
	d0, r0 := linkCounts()
	if _, err := placeSpin(t, s.server.Addr(), "refused", newRecorder()); !errors.Is(err, ErrPlacementRejected) {
		t.Fatalf("err = %v, want a rejection", err)
	}
	s.monitor.SetActive(false)
	runOnce(t, s, "taken")
	wantLinks(t, d0, r0, 1, 1)
}
