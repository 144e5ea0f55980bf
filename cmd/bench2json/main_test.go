package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCompareAllocs pins the allocation gate: growth beyond 5 % fails on
// every row that reports memory, a 0 allocs/op path may not allocate at
// all, and the allowlist excuses timing only.
func TestCompareAllocs(t *testing.T) {
	base := Document{Results: []Result{
		{Name: "BenchmarkCycle1000-2", NsOp: 1000, AllocsOp: 23078},
		{Name: "BenchmarkHot-2", NsOp: 10, AllocsOp: 0},
		{Name: "BenchmarkNoMem-2", NsOp: 10, AllocsOp: -1},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{"BenchmarkCycle1000": true}
	for _, tc := range []struct {
		name string
		cur  Result
		want int
	}{
		{"inside 5%", Result{Name: "BenchmarkCycle1000-8", NsOp: 1000, AllocsOp: 24000}, 0},
		{"slow but allowlisted", Result{Name: "BenchmarkCycle1000-8", NsOp: 5000, AllocsOp: 23078}, 0},
		{"beyond 5%, allowlisted or not", Result{Name: "BenchmarkCycle1000-8", NsOp: 1000, AllocsOp: 24300}, 1},
		{"fewer allocations", Result{Name: "BenchmarkCycle1000-8", NsOp: 1000, AllocsOp: 100}, 0},
		{"zero path allocates", Result{Name: "BenchmarkHot-8", NsOp: 10, AllocsOp: 1}, 1},
		{"baseline without memory", Result{Name: "BenchmarkNoMem-8", NsOp: 10, AllocsOp: 7}, 0},
	} {
		if got := compare(path, 0.3, allow, &Document{Results: []Result{tc.cur}}); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
