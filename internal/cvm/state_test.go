package cvm

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestSnapshotRestoreEquivalence is the core checkpointing property: for
// any split point k, running k steps, snapshotting, restoring on a
// "different machine" (fresh VM) and finishing produces exactly the same
// observable output and final state as an uninterrupted run. This is the
// paper's guarantee that "very little, if any, work will be performed
// more than once" and none is lost.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	reference := func() (string, uint64) {
		host := NewMemHost()
		v := newVM(t, MonteCarloPiProgram(3000), host)
		runToEnd(t, v)
		return host.Stdout(), v.Steps()
	}
	wantOut, wantSteps := reference()

	property := func(seed uint16) bool {
		k := uint64(seed)%wantSteps + 1
		host := NewMemHost()
		v := newVM(t, MonteCarloPiProgram(3000), host)
		st, err := v.Run(k)
		if err != nil {
			return false
		}
		if st == StatusHalted {
			return host.Stdout() == wantOut
		}
		img := v.Snapshot()
		v2, err := Restore(img, host)
		if err != nil {
			return false
		}
		if st2, err := v2.Run(wantSteps + 10); st2 != StatusHalted || err != nil {
			return false
		}
		return host.Stdout() == wantOut && v2.Steps() == wantSteps
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedMigrations(t *testing.T) {
	// Migrate the job every 500 steps across "machines"; the answer and
	// total work must match an uninterrupted run.
	host := NewMemHost()
	v := newVM(t, PrimeCountProgram(500), host)
	hops := 0
	for {
		st, err := v.Run(500)
		if err != nil {
			t.Fatal(err)
		}
		if st == StatusHalted {
			break
		}
		img := v.Snapshot()
		restored, err := Restore(img, host)
		if err != nil {
			t.Fatalf("hop %d: %v", hops, err)
		}
		v = restored
		hops++
		if hops > 10_000 {
			t.Fatal("job never finished")
		}
	}
	if hops < 3 {
		t.Fatalf("test exercised only %d migrations", hops)
	}
	if got := strings.TrimSpace(host.Stdout()); got != "95" {
		t.Fatalf("primes below 500 = %q, want 95", got)
	}
}

func TestSnapshotPreservesOpenFiles(t *testing.T) {
	host := NewMemHost()
	host.SetFile("in", []byte(strings.Repeat("abcdefgh", 32))) // 256 bytes = 4 reads
	v := newVM(t, FileCopyProgram("in", "out"), host)

	// Step until at least one file is open mid-copy.
	for len(v.OpenFiles()) < 2 {
		if st, err := v.Run(1); err != nil || st != StatusRunning {
			t.Fatalf("st %v err %v before files opened", st, err)
		}
	}
	// Run a bit more so offsets are non-zero.
	if _, err := v.Run(400); err != nil {
		t.Fatal(err)
	}
	img := v.Snapshot()
	if len(img.Files) == 0 {
		t.Skip("copy finished before snapshot point; shrink buffer to retest")
	}
	for _, f := range img.Files {
		if f.Name == "" {
			t.Fatalf("open file with empty name: %+v", f)
		}
	}
	v2, err := Restore(img, host)
	if err != nil {
		t.Fatal(err)
	}
	if st := runToEnd(t, v2); st != StatusHalted || v2.ExitCode() != 0 {
		t.Fatalf("status %v exit %d", st, v2.ExitCode())
	}
	out, _ := host.File("out")
	in, _ := host.File("in")
	if string(out) != string(in) {
		t.Fatalf("copy across checkpoint corrupted: got %d bytes, want %d", len(out), len(in))
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	v := newVM(t, SumProgram(1000), nil)
	if _, err := v.Run(10); err != nil {
		t.Fatal(err)
	}
	img := v.Snapshot()
	memBefore := append([]int64(nil), img.Mem...)
	if _, err := v.Run(100); err != nil {
		t.Fatal(err)
	}
	for i := range img.Mem {
		if img.Mem[i] != memBefore[i] {
			t.Fatal("snapshot memory mutated by continued execution")
		}
	}
}

func TestImageValidate(t *testing.T) {
	v := newVM(t, SumProgram(10), nil)
	if _, err := v.Run(5); err != nil {
		t.Fatal(err)
	}
	good := v.Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	corrupt := func(mutate func(*Image)) *Image {
		img := v.Snapshot()
		mutate(img)
		return img
	}
	bad := map[string]*Image{
		"nil program":    corrupt(func(i *Image) { i.Program = nil }),
		"wrong mem size": corrupt(func(i *Image) { i.Mem = i.Mem[:0] }),
		"sp mismatch":    corrupt(func(i *Image) { i.SP = 99 }),
		"pc outside":     corrupt(func(i *Image) { i.PC = -1 }),
		"dup fd": corrupt(func(i *Image) {
			i.Files = []OpenFile{{FD: 3}, {FD: 3}}
			i.NextFD = 4
		}),
		"fd beyond next": corrupt(func(i *Image) {
			i.Files = []OpenFile{{FD: 9}}
		}),
		"stack cap too small": corrupt(func(i *Image) {
			i.Stack = []int64{1, 2, 3}
			i.SP = 3
			i.StackCap = 2
		}),
		"stack cap too large": corrupt(func(i *Image) { i.StackCap = 1 << 62 }),
	}
	for name, img := range bad {
		if err := img.Validate(); err == nil {
			t.Fatalf("%s: corrupt image validated", name)
		}
		if _, err := Restore(img, NewMemHost()); err == nil {
			t.Fatalf("%s: corrupt image restored", name)
		}
	}
	if _, err := Restore(good, nil); err == nil {
		t.Fatal("restore with nil handler accepted")
	}
}

func TestHaltedImageRestores(t *testing.T) {
	v := newVM(t, SpinProgram(5), nil)
	runToEnd(t, v)
	img := v.Snapshot()
	v2, err := Restore(img, NewMemHost())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status() != StatusHalted || v2.ExitCode() != 0 {
		t.Fatalf("restored halted vm: status %v exit %d", v2.Status(), v2.ExitCode())
	}
}

func TestImageSize(t *testing.T) {
	v := newVM(t, SumProgram(10), nil)
	img := v.Snapshot()
	if img.SizeWords() <= 0 {
		t.Fatal("image size must be positive")
	}
	if img.SizeBytes() != int64(img.SizeWords())*8 {
		t.Fatal("SizeBytes inconsistent with SizeWords")
	}
	// A bigger static segment yields a bigger image.
	big := newVM(t, MustAssemble("big", ".bss\nb: .space 10000\n.text\nstart:\n HALT 0\n"), nil)
	if big.Snapshot().SizeWords() <= img.SizeWords() {
		t.Fatal("bss growth not reflected in image size")
	}
}

func TestRNGStateSurvivesCheckpoint(t *testing.T) {
	// Draw a few randoms, checkpoint, restore twice; both restored copies
	// must produce the same continuation sequence.
	p := MustAssemble("rng", `
.text
start:
    RAND r2
    RAND r2
    RAND r2
    RAND r3
    RAND r4
    HALT 0
`)
	v := newVM(t, p, nil)
	if _, err := v.Run(3); err != nil {
		t.Fatal(err)
	}
	img := v.Snapshot()
	run := func() (int64, int64) {
		r, err := Restore(img, NewMemHost())
		if err != nil {
			t.Fatal(err)
		}
		if st, err := r.Run(100); st != StatusHalted || err != nil {
			t.Fatalf("st %v err %v", st, err)
		}
		return r.Reg(3), r.Reg(4)
	}
	a3, a4 := run()
	b3, b4 := run()
	if a3 != b3 || a4 != b4 {
		t.Fatal("RNG continuation differs between restores")
	}
	if a3 == 0 && a4 == 0 {
		t.Fatal("RNG produced zeros; state probably not saved")
	}
}
