package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"condor/internal/policy"
)

// asMainEnv makes the test binary run main() on its arguments, so the
// tests below see the command's own flags, printing and export files.
const asMainEnv = "CONDOR_SIM_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the test binary as condor-sim on args and returns its
// stdout and its stderr.
func runMain(args ...string) ([]byte, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	return stdout, stderr.String(), err
}

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

// TestFlagConflictsRefused: a flag that the chosen mode would not read
// is an error that names both flags, not a silent no-op.
func TestFlagConflictsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "2", "-ablation", "vacate"},
		{"-seeds", "2", "-experiment", "fig2"},
		{"-seeds", "2", "-json", "x.json"},
		{"-seeds", "2", "-csv", "x"},
		{"-ablation", "vacate", "-json", "x.json"},
		{"-ablation", "vacate", "-csv", "x"},
		{"-ablation", "vacate", "-experiment", "fig4"},
		{"-policy", "updown,fifo", "-seeds", "3"},
		{"-policy", "updown,fifo", "-ablation", "history"},
		{"-policy", "updown,fifo", "-experiment", "scalars"},
		{"-policy", "updown,fifo", "-json", "x.json"},
		{"-explain", "-seeds", "2"},
		{"-explain", "-ablation", "pacing"},
		{"-explain", "-csv", "x"},
		{"-ablation", "updown", "-policy", "fifo"},
	} {
		stdout, stderr, err := runMain(args...)
		if err == nil {
			t.Errorf("condor-sim %s ran:\n%s", strings.Join(args, " "), stdout)
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && !strings.Contains(stderr, a) {
				t.Errorf("condor-sim %s: error %q does not name %s", strings.Join(args, " "), stderr, a)
			}
		}
	}
}

// TestAblationKeepsBasePolicy: under -policy, the alternative arm of an
// ablation about another field runs that policy too, so its scalars
// differ from the same arm under Up-Down.
func TestAblationKeepsBasePolicy(t *testing.T) {
	for _, ab := range []string{"pacing", "history"} {
		alternative := func(pol string) string {
			out, stderr, err := runMain("-days", "4", "-machines", "8", "-policy", pol, "-ablation", ab)
			if err != nil {
				t.Fatalf("-policy %s -ablation %s: %v\n%s", pol, ab, err, stderr)
			}
			return string(out[bytes.LastIndex(out, []byte("=== ")):])
		}
		if fifo := alternative("fifo"); fifo == alternative("updown") {
			t.Errorf("-ablation %s: the alternative arm prints the same under fifo as under updown:\n%s", ab, fifo)
		}
	}
}
