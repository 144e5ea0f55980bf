package ring

import (
	"slices"
	"sync"
	"testing"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		pushes   int // pushes 1..pushes
		last     int
		snapshot []int
		lastWant []int
		dropped  uint64
	}{
		{"capacity 0 keeps nothing", 0, 3, 2, []int{}, []int{}, 3},
		{"capacity 1 keeps newest", 1, 3, 5, []int{3}, []int{3}, 2},
		{"empty", 4, 0, 2, []int{}, []int{}, 0},
		{"partial, last above len", 4, 2, 3, []int{1, 2}, []int{1, 2}, 0},
		{"exactly full", 4, 4, 4, []int{1, 2, 3, 4}, []int{1, 2, 3, 4}, 0},
		{"wrapped, last below len", 4, 10, 3, []int{7, 8, 9, 10}, []int{8, 9, 10}, 6},
		{"wrapped, last 0", 4, 10, 0, []int{7, 8, 9, 10}, []int{}, 6},
		{"wrapped, last across the seam", 4, 6, 3, []int{3, 4, 5, 6}, []int{4, 5, 6}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New[int](tc.capacity)
			var overwrites uint64
			for i := 1; i <= tc.pushes; i++ {
				if r.Push(i) {
					overwrites++
				}
			}
			if got := r.Snapshot(); !slices.Equal(got, tc.snapshot) {
				t.Errorf("Snapshot = %v, want %v", got, tc.snapshot)
			}
			if got := r.Last(tc.last); !slices.Equal(got, tc.lastWant) {
				t.Errorf("Last(%d) = %v, want %v", tc.last, got, tc.lastWant)
			}
			if got := r.Total(); got != uint64(tc.pushes) {
				t.Errorf("Total = %d, want %d", got, tc.pushes)
			}
			if got := r.Dropped(); got != tc.dropped || overwrites != tc.dropped {
				t.Errorf("Dropped = %d, Push reported %d overwrites, want %d", got, overwrites, tc.dropped)
			}
		})
	}
}

// TestRingConcurrent runs writers against a reader. Under -race it
// checks the locking; every snapshot stays within capacity, and no push
// is lost from the counts.
func TestRingConcurrent(t *testing.T) {
	const capacity, writers, perWriter = 16, 4, 500
	r := New[int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Push(i)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if s := r.Snapshot(); len(s) > capacity {
			t.Fatalf("snapshot holds %d values, capacity %d", len(s), capacity)
		}
		r.Last(3)
	}
	if got, want := r.Total(), uint64(writers*perWriter); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := r.Dropped(), uint64(writers*perWriter-capacity); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
}
