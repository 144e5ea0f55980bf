package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Journal, []byte) {
	t.Helper()
	j, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

// appendAll appends each record in turn and closes the journal.
func appendAll(t *testing.T, dir string, recs ...string) {
	t.Helper()
	j, _ := mustOpen(t, dir)
	for _, rec := range recs {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
}

// newestSlot is the path of the slot the last of n appends wrote.
func newestSlot(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("state.%d", n%2))
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, rec := mustOpen(t, dir); rec != nil {
		t.Fatalf("fresh dir state = %q, want nil", rec)
	}
	var recs []string
	for i := 0; i < 20; i++ {
		recs = append(recs, fmt.Sprintf("state-%d%s", i, bytes.Repeat([]byte{'x'}, 20-i)))
	}
	appendAll(t, dir, recs...)
	if _, rec := mustOpen(t, dir); string(rec) != recs[19] {
		t.Fatalf("reopened state = %q, want %q", rec, recs[19])
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("%d files in the state directory, want the two slots", len(entries))
	}
}

// TestReplayTruncationFuzz cuts the newest slot at every byte offset:
// each cut must give back the previous state, and the next Append must
// go into the torn slot and keep the good one.
func TestReplayTruncationFuzz(t *testing.T) {
	master := t.TempDir()
	appendAll(t, master, "previous-state", "the-newest-state-is-longer")
	newest, previous := mustRead(t, newestSlot(master, 2)), mustRead(t, newestSlot(master, 1))
	for cut := 0; cut < len(newest); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(newestSlot(dir, 2), newest[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(newestSlot(dir, 1), previous, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := Open(dir, Config{})
		if err != nil || string(rec) != "previous-state" {
			t.Fatalf("cut at %d: recovered %q, %v; want the previous state", cut, rec, err)
		}
		if err := j.Append([]byte("after")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		j.Close()
		if !bytes.Equal(mustRead(t, newestSlot(dir, 1)), previous) {
			t.Fatalf("cut at %d: the append overwrote the good slot", cut)
		}
		if _, rec := mustOpen(t, dir); string(rec) != "after" {
			t.Fatalf("cut at %d: state after append = %q", cut, rec)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorruptSnapshotFallsBack damages the newest state's header: Open
// falls back to the other slot, and with both slots damaged it returns
// nil.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, "good", "newer")
	for _, tc := range []struct{ damage, want string }{
		{newestSlot(dir, 2), "good"},
		{newestSlot(dir, 1), ""},
	} {
		b := mustRead(t, tc.damage)
		b[9] ^= 0xff // inside the sequence number
		if err := os.WriteFile(tc.damage, b, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec := mustOpen(t, dir)
		j.Close()
		if string(rec) != tc.want || (rec == nil) != (tc.want == "") {
			t.Fatalf("after damaging %s: state = %q, want %q", filepath.Base(tc.damage), rec, tc.want)
		}
	}
}

// TestCorruptMiddleRecordTruncates flips a byte inside the newest
// record: the CRC refuses it, the previous state comes back, and the
// next, shorter state goes into the damaged slot and truncates it.
func TestCorruptMiddleRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, "record-0", "record-1-is-the-long-one")
	path := newestSlot(dir, 2)
	b := mustRead(t, path)
	b[headerLen+5] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	j, rec := mustOpen(t, dir)
	if string(rec) != "record-0" {
		t.Fatalf("state = %q, want the intact record-0", rec)
	}
	if err := j.Append([]byte("short")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != headerLen+5 {
		t.Fatalf("damaged slot after a shorter append: %v, %v; want %d bytes", fi.Size(), err, headerLen+5)
	}
}

// TestZeroLengthRunIsTornTail: a newest slot that is all zero bytes (a
// preallocated but unwritten region) or whose length runs past the end
// of the file is a torn write, not a state.
func TestZeroLengthRunIsTornTail(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, "real", "newer")
	path := newestSlot(dir, 2)
	good := mustRead(t, path)
	for _, b := range [][]byte{make([]byte, 64), good[:len(good)-1]} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, rec := mustOpen(t, dir); string(rec) != "real" {
			t.Fatalf("state = %q, want real", rec)
		}
	}
}

// TestLogEraFilesListedNotRead: a directory a log-era build wrote is
// listed by name, not read and not deleted; its state starts empty.
func TestLogEraFilesListedNotRead(t *testing.T) {
	dir := t.TempDir()
	legacy := []string{"journal.3.log", "snapshot.3.snap", "incarnation"}
	for _, name := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, rec := mustOpen(t, dir)
	if got := j.Stats().Legacy; rec != nil || fmt.Sprint(got) != fmt.Sprint(legacy) {
		t.Fatalf("state %q, legacy files %v; want nil and %v", rec, got, legacy)
	}
	j.Close()
	for _, name := range legacy {
		if string(mustRead(t, filepath.Join(dir, name))) != "old" {
			t.Fatalf("%s changed", name)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir())
	j.Close()
	if err := j.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, "rec", "longer-rec", "rec")
	j, _ := mustOpen(t, dir)
	if s := j.Stats(); s.Appends != 0 || s.Bytes != 3 {
		t.Fatalf("reopened stats = %+v, want 0 appends and the 3-byte newest state", s)
	}
	if err := j.Append([]byte("twelve bytes")); err != nil {
		t.Fatal(err)
	}
	if s := j.Stats(); s.Appends != 1 || s.Bytes != 12 || s.Legacy != nil {
		t.Fatalf("stats = %+v", s)
	}
}
