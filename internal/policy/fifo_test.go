package policy

import (
	"fmt"
	"testing"
)

// TestFIFOChurnBounded: a long churn of short-lived registrations must
// not grow the arrival table without limit (entries for deregistered
// stations used to live forever), while stations ranked in the current
// cycle always survive pruning.
func TestFIFOChurnBounded(t *testing.T) {
	const max = 64
	f := newFIFORanker(max)
	live := []string{"ws00", "ws01", "ws02"}
	for round := 0; round < 200; round++ {
		names := append([]string(nil), live...)
		for j := 0; j < 10; j++ {
			names = append(names, fmt.Sprintf("ephemeral-%d-%d", round, j))
		}
		ranked := f.Rank(names, nil, nil, nil)
		if len(ranked) != len(names) {
			t.Fatalf("round %d: Rank returned %d of %d names", round, len(ranked), len(names))
		}
		if len(f.order) > max {
			t.Fatalf("round %d: arrival table grew to %d entries (bound %d)", round, len(f.order), max)
		}
	}
	// The continuously-seen stations keep their original order: ws00
	// arrived first every round and must still rank first.
	ranked := f.Rank([]string{"ws02", "ws00", "ws01"}, nil, nil, nil)
	if ranked[0] != "ws00" || ranked[1] != "ws01" || ranked[2] != "ws02" {
		t.Fatalf("live stations lost their arrival order: %v", ranked)
	}
}

// TestFIFOPruneDeterministic: pruning evicts the longest-unseen entries
// first, deterministically, so two coordinators replaying the same
// churn agree on the surviving order.
func TestFIFOPruneDeterministic(t *testing.T) {
	run := func() []string {
		f := newFIFORanker(4)
		for i := 0; i < 12; i++ {
			f.Rank([]string{fmt.Sprintf("s%02d", i)}, nil, nil, nil)
		}
		return f.Rank([]string{"s08", "s09", "s10", "s11"}, nil, nil, nil)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prune nondeterministic: %v vs %v", a, b)
		}
	}
}
