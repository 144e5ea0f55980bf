package machine

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

func TestScriptedMonitor(t *testing.T) {
	m := NewScriptedMonitor(true)
	if !m.OwnerActive() {
		t.Fatal("initial state lost")
	}
	m.SetActive(false)
	if m.OwnerActive() {
		t.Fatal("SetActive(false) ignored")
	}
}

// TestLoadMonitor: the owner is active while the load per CPU exceeds
// maxBusy (0.25 here); a missing or unparsable loadavg file reads as idle.
func TestLoadMonitor(t *testing.T) {
	perCPU := func(frac float64) string {
		return strconv.FormatFloat(frac*float64(runtime.NumCPU()), 'f', -1, 64) + " 1.00 0.50 1/234 5678\n"
	}
	cases := []struct {
		name     string
		contents string // "" means no file
		active   bool
	}{
		{"busy", perCPU(0.9), true},
		{"quiet", perCPU(0.01), false},
		{"boundary", perCPU(0.25), false},
		{"missing file", "", false},
		{"garbage", "not a number", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "loadavg")
			if tc.contents != "" {
				if err := os.WriteFile(path, []byte(tc.contents), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := (loadMonitor{path: path, maxBusy: 0.25}).OwnerActive(); got != tc.active {
				t.Fatalf("OwnerActive = %v, want %v", got, tc.active)
			}
		})
	}
	if NewLoadMonitor(math.Inf(1)).OwnerActive() {
		t.Fatal("host load exceeded an infinite threshold")
	}
}

var t0 = time.Date(1987, 11, 2, 8, 0, 0, 0, time.UTC)

func TestTrackerIdleStreak(t *testing.T) {
	var tr Tracker
	tr.Observe(false, t0) // owner active
	if tr.IdleStreak(t0) != 0 {
		t.Fatal("streak while active")
	}
	tr.Observe(true, t0.Add(10*time.Minute))
	if got := tr.IdleStreak(t0.Add(40 * time.Minute)); got != 30*time.Minute {
		t.Fatalf("streak = %v, want 30m", got)
	}
}

func TestTrackerAvgIdleLen(t *testing.T) {
	var tr Tracker
	// idle 1h, active 1h, idle 3h, active...
	tr.Observe(true, t0)
	tr.Observe(false, t0.Add(1*time.Hour))
	tr.Observe(true, t0.Add(2*time.Hour))
	tr.Observe(false, t0.Add(5*time.Hour))
	if got := tr.AvgIdleLen(); got != 2*time.Hour {
		t.Fatalf("avg idle = %v, want 2h (mean of 1h and 3h)", got)
	}
}

func TestTrackerRepeatedSameObservation(t *testing.T) {
	var tr Tracker
	tr.Observe(true, t0)
	tr.Observe(true, t0.Add(time.Hour)) // no transition
	tr.Observe(false, t0.Add(2*time.Hour))
	if tr.AvgIdleLen() != 2*time.Hour {
		t.Fatalf("avg = %v, want 2h (one interval, not two of 1h)", tr.AvgIdleLen())
	}
}

func TestTrackerBeforeAnyObservation(t *testing.T) {
	var tr Tracker
	if tr.IdleStreak(t0) != 0 || tr.AvgIdleLen() != 0 {
		t.Fatal("zero-value expectations violated")
	}
}
