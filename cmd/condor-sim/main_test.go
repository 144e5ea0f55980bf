package main

import (
	"os"
	"path/filepath"
	"testing"

	"condor/internal/policy"
)

func tiny() (machines, days int, seed int64) { return 5, 2, 1 }

func TestRunExperiments(t *testing.T) {
	m, d, s := tiny()
	for _, exp := range []string{
		"all", "table1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "scalars",
	} {
		if err := run(m, d, s, exp, "", "", "", ""); err != nil {
			t.Fatalf("experiment %s: %v", exp, err)
		}
	}
	if err := run(m, d, s, "nonsense", "", "", "", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunAblations(t *testing.T) {
	m, d, s := tiny()
	for _, ab := range []string{"vacate", "pacing", "updown", "history", "periodic"} {
		if err := run(m, d, s, "all", ab, "", "", ""); err != nil {
			t.Fatalf("ablation %s: %v", ab, err)
		}
	}
	if err := run(m, d, s, "all", "nonsense", "", "", ""); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestRunPolicies(t *testing.T) {
	m, d, s := tiny()
	for _, pol := range policy.Names() {
		if err := run(m, d, s, "scalars", "", pol, "", ""); err != nil {
			t.Fatalf("policy %s: %v", pol, err)
		}
	}
	if err := run(m, d, s, "scalars", "", "nonsense", "", ""); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := runPolicyAB(baseConfig(m, d, s), []string{"updown", "fifo"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExports(t *testing.T) {
	m, d, s := tiny()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "rep.json")
	csvPrefix := filepath.Join(dir, "rep")
	if err := run(m, d, s, "scalars", "", "", jsonPath, csvPrefix); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, csvPrefix + "-hourly.csv", csvPrefix + "-by-demand.csv"} {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("export %s missing or empty: %v", path, err)
		}
	}
	if err := run(m, d, s, "scalars", "", "", "/nonexistent-dir/x.json", ""); err == nil {
		t.Fatal("unwritable export path accepted")
	}
}
