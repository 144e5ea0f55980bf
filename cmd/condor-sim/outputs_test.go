// A month per case takes minutes under the race detector, and the
// simulator is single-threaded, so these checks build without it.

//go:build !race

package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current code's outputs")

// asMainEnv makes the test binary run main() on its arguments, so the
// pinned outputs are the command's own: its flags, its printing and its
// export files.
const asMainEnv = "CONDOR_SIM_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputsPinned runs the month-scale simulation as the command does
// and compares what it prints, and the files it exports, with
// testdata/. A refactor of the simulator or of the figure code must
// leave every byte where it was; a change meant to move a figure
// regenerates the files with `go test ./cmd/condor-sim -run
// TestOutputsPinned -update` and shows the diff.
func TestOutputsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// arm64 and others fuse multiply-add, which can move last digits.
		t.Skip("outputs are pinned on amd64")
	}
	for _, tc := range []struct {
		name    string
		args    []string
		exports []string // files the run writes under its export prefix
	}{
		{name: "default-1987", args: []string{"-seed", "1987"}},
		{name: "default-1", args: []string{"-seed", "1"}},
		{name: "default-2", args: []string{"-seed", "2"}},
		{name: "scalars", args: []string{"-experiment", "scalars"}},
		{name: "ablation-vacate", args: []string{"-ablation", "vacate"}},
		{name: "ablation-pacing", args: []string{"-ablation", "pacing"}},
		{name: "ablation-updown", args: []string{"-ablation", "updown"}},
		{name: "ablation-history", args: []string{"-ablation", "history"}},
		{name: "ablation-periodic", args: []string{"-ablation", "periodic"}},
		{name: "seeds3", args: []string{"-seeds", "3"}},
		{name: "policy-ab", args: []string{"-policy", "updown,fifo,busiest-first"}},
		{
			name:    "export",
			args:    []string{"-experiment", "scalars", "-json", "{out}.json", "-csv", "{out}"},
			exports: []string{".json", "-hourly.csv", "-by-demand.csv"},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			prefix := filepath.Join(t.TempDir(), "export")
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "{out}", prefix)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), asMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("condor-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
			}
			comparePinned(t, tc.name+".txt", stdout)
			for _, suffix := range tc.exports {
				got, err := os.ReadFile(prefix + suffix)
				if err != nil {
					t.Fatal(err)
				}
				comparePinned(t, tc.name+suffix, got)
			}
		})
	}
}

// comparePinned checks got against testdata/name, or rewrites the file
// under -update.
func comparePinned(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs first at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
