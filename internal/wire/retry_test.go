package wire

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// center is the uniform word for which Backoff's jitter factor is 1.
const center = 1 << 63

func TestBackoffGrowthAndCap(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := Backoff(10*time.Millisecond, 80*time.Millisecond, i+1, 0, 12345); got != w {
			t.Errorf("Backoff(attempt %d, no jitter) = %v, want %v", i+1, got, w)
		}
		if got := Backoff(10*time.Millisecond, 80*time.Millisecond, i+1, 0.5, center); got != w {
			t.Errorf("Backoff(attempt %d, centred word) = %v, want %v", i+1, got, w)
		}
	}
	// A huge attempt count or cap neither overflows nor wraps.
	if got := Backoff(time.Second, math.MaxInt64, 200, 0, 0); got != math.MaxInt64 {
		t.Errorf("Backoff(attempt 200, cap MaxInt64) = %v, want the cap", got)
	}
}

// TestBackoffJitterBounds: the factor stays within [1−jitter, 1+jitter]
// over the whole range of the uniform word, and a delay too short to
// jitter (1 ns, from a -poll of 1ns) comes back unjittered.
func TestBackoffJitterBounds(t *testing.T) {
	words := []uint64{0, 1, 1 << 11, center - 1, center, center + 1, math.MaxUint64}
	for i := 0; i < 200; i++ {
		words = append(words, rand.Uint64())
	}
	for _, c := range []struct {
		d      time.Duration
		jitter float64
	}{{100 * time.Millisecond, 0.5}, {time.Second, 0.25}, {2 * time.Nanosecond, 0.25}, {time.Nanosecond, 0.25}} {
		lo := c.d - time.Duration(float64(c.d)*c.jitter)
		hi := c.d + time.Duration(float64(c.d)*c.jitter)
		for _, u := range words {
			if got := Backoff(c.d, c.d, 1, c.jitter, u); got < lo || got > hi {
				t.Fatalf("Backoff(%v ±%v, u=%#x) = %v outside [%v, %v]", c.d, c.jitter, u, got, lo, hi)
			}
		}
	}
	for _, u := range words {
		if got := Backoff(time.Nanosecond, time.Nanosecond, 1, 0.25, u); got != time.Nanosecond {
			t.Fatalf("Backoff(1ns ±25%%, u=%#x) = %v, want 1ns unjittered", u, got)
		}
	}
}

// TestRetrySchedule pins the schedule the RPC retry (CallRetry) and the
// link dial (Retry) share: 50ms doubling to 2s, ±20%, 3 attempts.
func TestRetrySchedule(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms}
	for i, w := range want {
		if got := Backoff(retryBase, retryMax, i+1, retryJitter, center); got != w {
			t.Errorf("retry delay after failure %d = %v, want %v", i+1, got, w)
		}
	}
	lo, hi := Backoff(retryBase, retryMax, 1, retryJitter, 0), Backoff(retryBase, retryMax, 1, retryJitter, math.MaxUint64)
	if lo != 40*ms || hi < 59*ms || hi > 60*ms {
		t.Errorf("first retry delay spans [%v, %v], want [40ms, 60ms]", lo, hi)
	}
	if retryAttempts != 3 {
		t.Errorf("retryAttempts = %d, want 3", retryAttempts)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&RemoteError{Msg: "queue full"}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrClosed, true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("wire: dial 1.2.3.4: connection refused"), true},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), func() error {
		calls++
		if calls < 3 {
			return ErrClosed
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want nil after 3 attempts", err, calls)
	}
}

func TestDoStopsOnRemoteError(t *testing.T) {
	calls := 0
	remote := &RemoteError{Msg: "no idle jobs"}
	err := Retry(context.Background(), func() error {
		calls++
		return remote
	})
	if !errors.Is(err, remote) || calls != 1 {
		t.Fatalf("err = %v, calls = %d; want the remote error after 1 attempt", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), func() error {
		calls++
		return ErrClosed
	})
	if !errors.Is(err, ErrClosed) || calls != 3 {
		t.Fatalf("err = %v, calls = %d; want ErrClosed after 3 attempts", err, calls)
	}
}

func TestDoStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Retry(ctx, func() error {
		calls++
		return ErrClosed
	})
	if err == nil {
		t.Fatal("Do succeeded despite every attempt failing")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do ran %v after cancellation", elapsed)
	}
	if calls >= retryAttempts {
		t.Fatalf("Do made all %d attempts despite cancellation", calls)
	}
}
