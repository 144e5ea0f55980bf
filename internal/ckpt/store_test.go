package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

	t.Run(name+"/concurrent-use", func(t *testing.T) {
		// GetBlob reads the backend outside the store's mutex, racing
		// the writes and removes of other goroutines.
		s := mk(t, 0)
		img := makeImage(t, cvm.SumProgram(30), 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := s.Put(Meta{JobID: id, Sequence: uint64(i)}, img); err != nil {
						t.Error(err)
						return
					}
					if _, _, err := s.GetBlob("shared"); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
					s.Usage()
					s.List()
					if err := s.Delete("shared"); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.PutBlob("shared", mustEncode(t, Meta{JobID: "shared"}, img)); err != nil {
						t.Error(err)
						return
					}
				}
			}(fmt.Sprintf("g%d", g))
		}
		wg.Wait()
		if u := s.Usage(); u.Checkpoints != 5 {
			t.Fatalf("usage after concurrent use = %+v, want 5 checkpoints", u)
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
	// The store reads its directory once, at open: damaged files must be
	// in place before it is reopened.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A spool written before Version 3 is refused like any corrupt file.
	v2, err := os.ReadFile(filepath.Join("testdata", "v2-small-plain.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "ws1_7.ckpt")
	if err := os.WriteFile(old, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	before := mSkippedFiles.Value()
	s, err = NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 1 || list[0].JobID != "good" {
		t.Fatalf("list = %+v, want only the good checkpoint", list)
	}
	if got := mSkippedFiles.Value() - before; got != 2 {
		t.Fatalf("skipped-files counter rose by %d, want 2", got)
	}
	for _, path := range []string{bad, old} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("skipped file not left on disk: %v", err)
		}
	}
}

// A temp file a crash left between create and rename was never
// acknowledged: opening the store removes it, so it cannot hold spool
// space forever.
func TestDirStoreRemovesLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := makeImage(t, cvm.SpinProgram(10), 3)
	for _, id := range []string{"ws1/1", "ws1/2"} {
		if err := s.Put(Meta{JobID: id}, img); err != nil {
			t.Fatal(err)
		}
	}
	leftover := filepath.Join(dir, ".ckpt-123")
	if err := os.WriteFile(leftover, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file still there: %v", err)
	}
	if list := s.List(); len(list) != 2 || list[0].JobID != "ws1/1" || list[1].JobID != "ws1/2" {
		t.Fatalf("list = %+v, want both checkpoints", list)
	}
}

// §4 shared text holds on the durable store too: 20 jobs of one program
// charge one text, exactly as a shared in-memory store does.
func TestDirStoreSharesText(t *testing.T) {
	dir, err := NewDirStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore(0, true)
	for i := 0; i < 20; i++ {
		img := makeImage(t, cvm.SumProgram(int64(1000+i)), 10)
		meta := Meta{JobID: fmt.Sprintf("j%02d", i)}
		for _, s := range []Store{dir, mem} {
			if err := s.Put(meta, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	du, mu := dir.Usage(), mem.Usage()
	if du.SharedTexts != 1 || du != mu {
		t.Fatalf("dir usage %+v, shared mem usage %+v: want one shared text and equal usage", du, mu)
	}
}

// -disk means the same with or without -spool: a durable store and a
// shared in-memory store of one capacity admit the same checkpoints and
// refuse the next.
func TestDirStoreDiskFullMatchesMemStore(t *testing.T) {
	img := func(i int) *cvm.Image { return makeImage(t, cvm.SumProgram(int64(1000+i)), 10) }
	probe := NewMemStore(0, true)
	if err := probe.Put(Meta{JobID: "p0"}, img(0)); err != nil {
		t.Fatal(err)
	}
	first := probe.Usage().Bytes
	if err := probe.Put(Meta{JobID: "p1"}, img(1)); err != nil {
		t.Fatal(err)
	}
	perJob := probe.Usage().Bytes - first
	const fit = 5
	capacity := first + (fit-1)*perJob + perJob/2

	dir, err := NewDirStore(t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore(capacity, true)
	for i := 0; i <= fit; i++ {
		meta := Meta{JobID: fmt.Sprintf("j%d", i)}
		derr, merr := dir.Put(meta, img(i)), mem.Put(meta, img(i))
		if want := i < fit; (derr == nil) != want || (merr == nil) != want {
			t.Fatalf("put %d: dir err %v, mem err %v; want accepted = %v", i, derr, merr, want)
		}
		if i == fit && (!errors.Is(derr, ErrDiskFull) || !errors.Is(merr, ErrDiskFull)) {
			t.Fatalf("put %d: dir err %v, mem err %v; want ErrDiskFull", i, derr, merr)
		}
	}
	if du, mu := dir.Usage(), mem.Usage(); du != mu {
		t.Fatalf("dir usage %+v, mem usage %+v", du, mu)
	}
}

// failingBlobs is a backend whose writes and removes fail on demand.
type failingBlobs struct {
	backend
	fail bool
}

func (b *failingBlobs) write(jobID string, blob []byte) error {
	if b.fail {
		return errors.New("injected write failure")
	}
	return b.backend.write(jobID, blob)
}

func (b *failingBlobs) remove(jobID string) error {
	if b.fail {
		return errors.New("injected remove failure")
	}
	return b.backend.remove(jobID)
}

// The index changes exactly when the backend's blob does: a failed write
// or remove leaves the old checkpoint, its entry and Usage.
func TestFailedWriteKeepsEntry(t *testing.T) {
	blobs := &failingBlobs{backend: &memBlobs{m: make(map[string][]byte)}}
	s := newStore(blobs, 0, true)
	if err := s.Put(Meta{JobID: "j", Sequence: 1}, makeImage(t, cvm.SumProgram(10), 5)); err != nil {
		t.Fatal(err)
	}
	usage := s.Usage()
	blobs.fail = true
	if err := s.Put(Meta{JobID: "j", Sequence: 2}, makeImage(t, cvm.SpinProgram(10), 5)); err == nil {
		t.Fatal("put with a failing backend succeeded")
	}
	if err := s.Put(Meta{JobID: "k"}, makeImage(t, cvm.SpinProgram(10), 5)); err == nil || s.Has("k") {
		t.Fatalf("new job after a failed write: err %v, has %v", err, s.Has("k"))
	}
	if err := s.Delete("j"); err == nil {
		t.Fatal("delete with a failing backend succeeded")
	}
	meta, _, err := s.Get("j")
	if err != nil || meta.Sequence != 1 || s.Usage() != usage {
		t.Fatalf("after failed writes: seq %d, err %v, usage %+v (was %+v)", meta.Sequence, err, s.Usage(), usage)
	}
}

func mustEncode(t *testing.T, meta Meta, img *cvm.Image) []byte {
	t.Helper()
	blob, err := EncodeBytes(meta, img)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
