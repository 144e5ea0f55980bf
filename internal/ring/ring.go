// Package ring is the one bounded history buffer every daemon keeps:
// spans, cycle audits, events and time series all retain their newest
// values in a Ring and drop the oldest when it is full.
package ring

import "sync"

// Ring is a fixed-capacity, drop-oldest buffer of values. It is safe
// for concurrent use; the zero value is unusable, call New.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64
}

// New returns a ring retaining the newest capacity values. A ring of
// capacity 0 (or less) retains nothing: every value counts as dropped.
func New[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 0))}
}

// Push appends v and reports whether a value was dropped to make room
// (always true at capacity 0, where v itself is dropped).
func (r *Ring[T]) Push(v T) (overwrote bool) {
	r.mu.Lock()
	r.total++
	n := uint64(len(r.buf))
	if n > 0 {
		r.buf[(r.total-1)%n] = v
	}
	overwrote = r.total > n
	r.mu.Unlock()
	return overwrote
}

// Snapshot copies every retained value, oldest first.
func (r *Ring[T]) Snapshot() []T { return r.Last(-1) }

// Last copies the newest n retained values, oldest first; n < 0 means
// all of them.
func (r *Ring[T]) Last(n int) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.heldLocked()
	if n < 0 || n > held {
		n = held
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	// The newest value sits at (total-1) % len; the n-th newest n-1
	// slots before it, wrapping.
	start := int((r.total - uint64(n)) % uint64(len(r.buf)))
	k := copy(out, r.buf[start:])
	copy(out[k:], r.buf[:n-k])
	return out
}

// Total returns how many values were ever pushed.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many pushed values are no longer retained.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(r.heldLocked())
}

func (r *Ring[T]) heldLocked() int {
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}
