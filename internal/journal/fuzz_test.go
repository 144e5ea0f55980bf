package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay hands Open a state directory whose log and newest snapshot
// hold arbitrary bytes — what a crash, a full disk or bit rot can leave
// behind. Recovery must never panic or fail; it must account for every
// log byte as either replayed or truncated, leave the log append-ready
// on the surviving boundary, and recover the same state again on the
// next start. Seeds are the inputs of the corruption tests in
// journal_test.go.
func FuzzReplay(f *testing.F) {
	master := f.TempDir()
	j, _, err := Open(master, Config{SyncEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Snapshot([]byte("good")); err != nil {
		f.Fatal(err)
	}
	for _, rec := range []string{"record-0", "record-1", "a-longer-third-record"} {
		if err := j.Append([]byte(rec)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	log, err := os.ReadFile(filepath.Join(master, "journal.1.log"))
	if err != nil {
		f.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(master, "snapshot.1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0xff
		return out
	}
	f.Add(log, snap)
	f.Add([]byte{}, []byte{})
	f.Add(log[:len(log)-1], snap)                                         // torn payload
	f.Add(log[:recHeaderLen+8+3], snap)                                   // torn header of record 1
	f.Add(flip(log, (recHeaderLen+8)+recHeaderLen+2), snap)               // damaged middle record
	f.Add(append(append([]byte(nil), log...), make([]byte, 64)...), snap) // zero-filled tail
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, log...), snap)           // absurd length first
	f.Add(log, []byte("garbage"))
	f.Add(log, snap[:len(snap)-2])
	f.Add(log, flip(snap, len(snap)-1))

	f.Fuzz(func(t *testing.T, log, snap []byte) {
		dir := t.TempDir()
		// Generation 1 when the snapshot decodes, generation 0 when it
		// does not: either way the log bytes are the ones replayed.
		for name, b := range map[string][]byte{"snapshot.1.snap": snap, "journal.1.log": log, "journal.0.log": log} {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, state, err := Open(dir, Config{SyncEvery: -1})
		if err != nil {
			t.Fatalf("recovery errored: %v", err)
		}
		replayed := 0
		for _, rec := range state.Records {
			if len(rec) == 0 {
				t.Fatal("replayed an empty record")
			}
			replayed += recHeaderLen + len(rec)
		}
		stats := j.Stats()
		if int64(replayed)+stats.TruncatedBytes != int64(len(log)) || stats.LogBytes != int64(replayed) {
			t.Fatalf("%d log bytes: %d replayed + %d truncated, log now %d",
				len(log), replayed, stats.TruncatedBytes, stats.LogBytes)
		}
		if err := j.Append([]byte("after-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()

		j2, again, err := Open(dir, Config{SyncEvery: -1})
		if err != nil {
			t.Fatalf("second recovery errored: %v", err)
		}
		defer j2.Close()
		if j2.Stats().TruncatedBytes != 0 {
			t.Fatalf("second recovery truncated %d more bytes", j2.Stats().TruncatedBytes)
		}
		if !bytes.Equal(again.Snapshot, state.Snapshot) {
			t.Fatalf("snapshot changed across recoveries: %q then %q", state.Snapshot, again.Snapshot)
		}
		if len(again.Records) != len(state.Records)+1 || string(again.Records[len(state.Records)]) != "after-recovery" {
			t.Fatalf("%d records, then %d after one append", len(state.Records), len(again.Records))
		}
		for i, rec := range state.Records {
			if !bytes.Equal(again.Records[i], rec) {
				t.Fatalf("record %d changed across recoveries", i)
			}
		}
	})
}
