package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condor/internal/cvm"
)

// storeUnderTest runs the same behavioural suite against every Store
// implementation.
func storeUnderTest(t *testing.T, name string, mk func(t *testing.T, capacity int64) Store) {
	t.Run(name+"/put-get-roundtrip", func(t *testing.T) {
		s := mk(t, 0)
		img := makeImage(t, cvm.SumProgram(200), 25)
		meta := Meta{JobID: "ws1/1", Owner: "A", ProgramName: "sum", Sequence: 1}
		if err := s.Put(meta, img); err != nil {
			t.Fatal(err)
		}
		gotMeta, gotImg, err := s.Get("ws1/1")
		if err != nil {
			t.Fatal(err)
		}
		if gotMeta.Owner != "A" || gotMeta.TextChecksum == "" {
			t.Fatalf("meta = %+v", gotMeta)
		}
		host := cvm.NewMemHost()
		v, err := cvm.Restore(gotImg, host)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := v.Run(1_000_000); st != cvm.StatusHalted || err != nil {
			t.Fatalf("st %v err %v", st, err)
		}
		if got := strings.TrimSpace(host.Stdout()); got != "20100" {
			t.Fatalf("resumed output = %q", got)
		}
	})

	t.Run(name+"/get-missing", func(t *testing.T) {
		s := mk(t, 0)
		if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	})

	t.Run(name+"/delete-idempotent", func(t *testing.T) {
		s := mk(t, 0)
		img := makeImage(t, cvm.SpinProgram(10), 3)
		if err := s.Put(Meta{JobID: "j"}, img); err != nil {
			t.Fatal(err)
		}
		if !s.Has("j") {
			t.Fatal("Has = false after Put")
		}
		if err := s.Delete("j"); err != nil {
			t.Fatal(err)
		}
		if s.Has("j") {
			t.Fatal("Has = true after Delete")
		}
		if err := s.Delete("j"); err != nil {
			t.Fatalf("second delete: %v", err)
		}
	})

	t.Run(name+"/replace-same-job", func(t *testing.T) {
		s := mk(t, 0)
		img1 := makeImage(t, cvm.SpinProgram(100), 5)
		img2 := makeImage(t, cvm.SpinProgram(100), 50)
		if err := s.Put(Meta{JobID: "j", Sequence: 1}, img1); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(Meta{JobID: "j", Sequence: 2}, img2); err != nil {
			t.Fatal(err)
		}
		meta, img, err := s.Get("j")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Sequence != 2 || img.Steps != 50 {
			t.Fatalf("got seq %d steps %d, want the replacement", meta.Sequence, img.Steps)
		}
		if u := s.Usage(); u.Checkpoints != 1 {
			t.Fatalf("usage after replace = %+v", u)
		}
	})

	t.Run(name+"/capacity-enforced", func(t *testing.T) {
		img := makeImage(t, cvm.SpinProgram(10), 3)
		small := mk(t, 64) // far below one checkpoint
		err := small.Put(Meta{JobID: "j"}, img)
		if !errors.Is(err, ErrDiskFull) {
			t.Fatalf("err = %v, want ErrDiskFull", err)
		}
		if small.Has("j") {
			t.Fatal("failed Put left residue")
		}
	})

	t.Run(name+"/list-sorted", func(t *testing.T) {
		s := mk(t, 0)
		img := makeImage(t, cvm.SpinProgram(10), 3)
		for _, id := range []string{"c", "a", "b"} {
			if err := s.Put(Meta{JobID: id}, img); err != nil {
				t.Fatal(err)
			}
		}
		list := s.List()
		if len(list) != 3 || list[0].JobID != "a" || list[2].JobID != "c" {
			t.Fatalf("list = %+v", list)
		}
	})

	t.Run(name+"/empty-job-id-rejected", func(t *testing.T) {
		s := mk(t, 0)
		img := makeImage(t, cvm.SpinProgram(10), 3)
		if err := s.Put(Meta{}, img); err == nil {
			t.Fatal("empty job id accepted")
		}
	})
}

func TestMemStore(t *testing.T) {
	storeUnderTest(t, "mem", func(t *testing.T, capacity int64) Store {
		return NewMemStore(capacity, false)
	})
}

func TestMemStoreShared(t *testing.T) {
	storeUnderTest(t, "mem-shared", func(t *testing.T, capacity int64) Store {
		return NewMemStore(capacity, true)
	})
}

func TestDirStore(t *testing.T) {
	storeUnderTest(t, "dir", func(t *testing.T, capacity int64) Store {
		s, err := NewDirStore(t.TempDir(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestMemStoreSharedTextSavesSpace(t *testing.T) {
	// Many parameter-sweep jobs of the same program: shared store keeps
	// one text; private store keeps one per job (§4).
	const jobs = 20
	shared := NewMemStore(0, true)
	private := NewMemStore(0, false)
	for i := 0; i < jobs; i++ {
		img := makeImage(t, cvm.SumProgram(int64(1000+i)), 10)
		meta := Meta{JobID: fmt.Sprintf("j%02d", i)}
		if err := shared.Put(meta, img); err != nil {
			t.Fatal(err)
		}
		if err := private.Put(meta, img); err != nil {
			t.Fatal(err)
		}
	}
	su, pu := shared.Usage(), private.Usage()
	if su.SharedTexts != 1 {
		t.Fatalf("shared texts = %d, want 1", su.SharedTexts)
	}
	if su.Bytes >= pu.Bytes {
		t.Fatalf("shared store (%d B) not smaller than private (%d B)", su.Bytes, pu.Bytes)
	}
	// The saving should be roughly (jobs-1) text segments.
	saving := pu.Bytes - su.Bytes
	if saving < int64(jobs-2)*su.TextBytes/int64(jobs) {
		t.Fatalf("saving %d B implausibly small (text is %d B)", saving, su.TextBytes)
	}
}

func TestMemStoreSharedTextRefcounting(t *testing.T) {
	s := NewMemStore(0, true)
	imgA := makeImage(t, cvm.SumProgram(1), 5)
	imgB := makeImage(t, cvm.SumProgram(2), 5)
	if err := s.Put(Meta{JobID: "a"}, imgA); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Meta{JobID: "b"}, imgB); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.SharedTexts != 1 {
		t.Fatalf("shared texts = %d, want 1", u.SharedTexts)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.SharedTexts != 1 {
		t.Fatal("text dropped while still referenced")
	}
	// Job b must still be restorable after a's delete.
	if _, img, err := s.Get("b"); err != nil || len(img.Program.Text) == 0 {
		t.Fatalf("get b after delete a: %v", err)
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.SharedTexts != 0 || u.Bytes != 0 {
		t.Fatalf("store not empty after all deletes: %+v", u)
	}
}

func TestMemStoreDeepCopy(t *testing.T) {
	s := NewMemStore(0, false)
	img := makeImage(t, cvm.SumProgram(100), 10)
	if err := s.Put(Meta{JobID: "j"}, img); err != nil {
		t.Fatal(err)
	}
	img.Mem[0] = -999 // caller mutates after Put
	_, got, err := s.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if got.Mem[0] == -999 {
		t.Fatal("store shares memory with caller")
	}
	got.Mem[0] = -777 // caller mutates the Get result
	_, again, err := s.Get("j")
	if err != nil {
		t.Fatal(err)
	}
	if again.Mem[0] == -777 {
		t.Fatal("store handed out shared memory")
	}
}

func TestDirStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := makeImage(t, cvm.SumProgram(300), 20)
	if err := s1.Put(Meta{JobID: "ws1/9", Owner: "B"}, img); err != nil {
		t.Fatal(err)
	}
	// "Reboot": a new store over the same directory sees the checkpoint.
	s2, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := s2.Get("ws1/9")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Owner != "B" || got.Steps != img.Steps {
		t.Fatalf("recovered meta %+v steps %d", meta, got.Steps)
	}
	list := s2.List()
	if len(list) != 1 || list[0].JobID != "ws1/9" {
		t.Fatalf("list after reopen = %+v", list)
	}
}

func TestDirStoreSkipsCorruptFilesInList(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := makeImage(t, cvm.SpinProgram(10), 3)
	if err := s.Put(Meta{JobID: "good"}, img); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(t, dir+"/bad.ckpt", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	// A spool written before Version 3 is refused like any corrupt file.
	v2, err := os.ReadFile(filepath.Join("testdata", "v2-small-plain.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(t, dir+"/ws1_7.ckpt", v2); err != nil {
		t.Fatal(err)
	}
	before := mSkippedFiles.Value()
	list := s.List()
	if len(list) != 1 || list[0].JobID != "good" {
		t.Fatalf("list = %+v, want only the good checkpoint", list)
	}
	if got := mSkippedFiles.Value() - before; got != 2 {
		t.Fatalf("skipped-files counter rose by %d, want 2", got)
	}
	if u := s.Usage(); u.Checkpoints != 3 {
		t.Fatalf("usage = %+v, want the skipped files left on disk", u)
	}
}

func writeFile(t *testing.T, path string, data []byte) error {
	t.Helper()
	return os.WriteFile(path, data, 0o644)
}
