package sim

import "time"

// VirtualClock is a clock whose time advances only when the event loop
// tells it to. It is not safe for concurrent use; the simulator is
// single-threaded by design.
type VirtualClock struct {
	now time.Time
}

// NewVirtualClock returns a virtual clock positioned at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time { return c.now }

// advance moves the clock forward to t. Moving backwards is a programming
// error in the kernel and is ignored to keep time monotonic.
func (c *VirtualClock) advance(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}
