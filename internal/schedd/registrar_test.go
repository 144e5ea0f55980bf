package schedd

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/wire"
)

// TestRegistrarBacksOffWhileCoordinatorSilent is the regression for the
// lockstep-hammering bug: StartRegistrar used a fixed ticker, so every
// station in the pool re-registered at the same cadence forever while a
// coordinator restarted. Now re-registration backs off exponentially
// (with jitter) while no poll arrives.
func TestRegistrarBacksOffWhileCoordinatorSilent(t *testing.T) {
	var registers atomic.Int64
	// A coordinator that accepts registrations but never polls.
	coord, err := wire.NewServer("127.0.0.1:0", func(pe *wire.Peer) wire.Handler {
		return func(_ context.Context, msg any) (any, error) {
			if _, ok := msg.(proto.RegisterRequest); ok {
				registers.Add(1)
				return proto.RegisterReply{OK: true, PollIntervalMillis: 10}, nil
			}
			return nil, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	st := newStation(t, "ws1", nil, nil)
	stop, err := st.StartRegistrar(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Nothing polls the station, so after the grace window every timer
	// firing re-registers. With a fixed 10ms ticker 600ms would fire
	// ~60 re-registrations; exponential backoff capped at 16×interval
	// admits at most ~12 (3 grace checks + 10/20/40/80/160/160/160ms…),
	// jitter included.
	time.Sleep(600 * time.Millisecond)
	got := registers.Load() - 1 // subtract the initial Register
	if got > 20 {
		t.Fatalf("%d re-registrations in 600ms; backoff not applied", got)
	}
	if got == 0 {
		t.Fatal("registrar never re-registered against a silent coordinator")
	}
}

// TestReregisterSchedule: with jitter centred, re-registration waits the
// poll interval doubling up to 16×, and the jitter stays within ±25%.
func TestReregisterSchedule(t *testing.T) {
	iv := 10 * time.Second
	want := []time.Duration{iv, 2 * iv, 4 * iv, 8 * iv, 16 * iv, 16 * iv, 16 * iv, 16 * iv}
	for i, w := range want {
		if got := reregisterDelay(iv, i+1, 1<<63); got != w {
			t.Errorf("re-registration delay after attempt %d = %v, want %v", i+1, got, w)
		}
		for _, u := range []uint64{0, math.MaxUint64} {
			if got := reregisterDelay(iv, i+1, u); got < w-w/4 || got > w+w/4 {
				t.Errorf("re-registration delay after attempt %d (u=%#x) = %v, want %v ±25%%", i+1, u, got, w)
			}
		}
	}
}
