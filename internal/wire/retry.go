package wire

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Retry is a bounded exponential-backoff policy for transport-level
// failures. The zero value sanitizes to 3 attempts starting at 50ms,
// doubling up to 2s, with ±20% jitter. Only use it for idempotent
// operations (dials, polls, registrations, preempts): a retried request
// may execute twice when the first reply was lost in flight.
type Retry struct {
	// MaxAttempts is the total number of tries, first included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff after the first failure (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the backoff per failure (default 2; min 1).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction so a pool of
	// clients does not retry in lockstep (default 0.2; negative disables).
	Jitter float64
}

func (r *Retry) sanitize() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 50 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
	}
	if r.Jitter == 0 {
		r.Jitter = 0.2
	}
	if r.Jitter < 0 {
		r.Jitter = 0
	}
	if r.Jitter > 1 {
		r.Jitter = 1
	}
}

// Backoff returns the sleep after the attempt-th failure (1-based):
// BaseDelay·Multiplier^(attempt-1), capped at MaxDelay, jittered.
func (r Retry) Backoff(attempt int) time.Duration {
	r.sanitize()
	d := float64(r.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= r.Multiplier
		if d >= float64(r.MaxDelay) {
			break
		}
	}
	if d > float64(r.MaxDelay) {
		d = float64(r.MaxDelay)
	}
	if r.Jitter > 0 {
		d *= 1 - r.Jitter + 2*r.Jitter*rand.Float64()
	}
	return time.Duration(d)
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

// Do runs op under the policy: it returns op's result as soon as it
// succeeds, fails non-retryably, or exhausts MaxAttempts, backing off
// between attempts. ctx cancellation stops the loop between attempts
// (the in-flight op must bound itself with the same ctx).
func (r Retry) Do(ctx context.Context, op func() error) error {
	return r.do(ctx, time.Time{}, op)
}

// do is Do that also gives up, with op's last error, when a backoff would
// end at or past until (if set): no attempt starts after it.
func (r Retry) do(ctx context.Context, until time.Time, op func() error) error {
	r.sanitize()
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !Retryable(err) || attempt >= r.MaxAttempts {
			return err
		}
		backoff := r.Backoff(attempt)
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
