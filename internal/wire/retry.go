package wire

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// The retry schedule of Retry and CallRetry: 3 attempts in all, waiting
// 50ms and then 100ms (doubling up to 2s), each wait ±20%.
const (
	retryAttempts = 3
	retryBase     = 50 * time.Millisecond
	retryMax      = 2 * time.Second
	retryJitter   = 0.2
)

// Backoff is the system's one "wait longer after each failure" rule: the
// wait after the attempt-th failure (1-based) is base·2^(attempt−1),
// capped at max, scaled by a factor in [1−jitter, 1+jitter] so a pool of
// callers does not retry in lockstep. The factor is drawn from u, a
// uniform word the caller supplies (rand.Uint64, or a per-station stream
// for a schedule that is deterministic per station); u = 1<<63 is the
// factor 1. A delay too short to jitter (1 ns) comes back unjittered.
func Backoff(base, max time.Duration, attempt int, jitter float64, u uint64) time.Duration {
	d := min(base, max)
	for i := 1; i < attempt && d < max; i++ {
		if d > max/2 {
			d = max
		} else {
			d *= 2
		}
	}
	f := float64(u>>11)/(1<<53)*2 - 1 // u's top 53 bits, in [-1, 1)
	return d + time.Duration(float64(d)*jitter*f)
}

// Retryable reports whether err is a transport-level failure worth
// retrying. A RemoteError means the peer's handler ran and failed —
// retrying would re-execute it, so it is final. Context errors mean the
// caller's deadline governs, not the transport. Everything else (dial
// refusals, resets, closed connections, I/O deadlines mid-frame) is a
// transport fault a fresh connection may fix.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// Retry runs op until it succeeds, fails non-retryably, or has been tried
// 3 times, backing off between attempts. ctx cancellation stops the loop
// between attempts (the in-flight op must bound itself with the same
// ctx). Only use it for idempotent operations (dials, polls,
// registrations, preempts): a retried request may execute twice when the
// first reply was lost in flight.
func Retry(ctx context.Context, op func() error) error {
	return retry(ctx, time.Time{}, op)
}

// retry is Retry that also gives up, with op's last error, when a backoff
// would end at or past until (if set): no attempt starts after it.
func retry(ctx context.Context, until time.Time, op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !Retryable(err) || attempt >= retryAttempts {
			return err
		}
		backoff := Backoff(retryBase, retryMax, attempt, retryJitter, rand.Uint64())
		if !until.IsZero() && !time.Now().Add(backoff).Before(until) {
			return err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return err
		case <-timer.C:
		}
	}
}
