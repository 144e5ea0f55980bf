package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay hands Open two slot files of arbitrary bytes — what a
// crash, a full disk or bit rot can leave behind. Recovery must never
// panic or fail, must never allocate more than the files hold, and must
// return the highest-sequence record whose frame verifies, or nil. The
// journal must then be append-ready. Seeds are the inputs of the
// corruption tests in journal_test.go.
func FuzzReplay(f *testing.F) {
	master := f.TempDir()
	j, _, err := Open(master, Config{})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []string{"good", "a-longer-newest-state"} {
		if err := j.Append([]byte(rec)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	s0, _ := os.ReadFile(filepath.Join(master, "state.0"))
	s1, _ := os.ReadFile(filepath.Join(master, "state.1"))
	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0xff
		return out
	}
	absurd := append(append(s0[:16:16], 0xff, 0xff, 0xff, 0xff), s0[20:]...)
	f.Add(s0, s1)
	f.Add([]byte{}, []byte{})
	f.Add(s0[:len(s0)-1], s1)               // torn newest record
	f.Add(s0[:headerLen-3], s1)             // torn newest header
	f.Add(flip(s0, headerLen+2), s1)        // damaged newest record
	f.Add(flip(s0, 9), flip(s1, headerLen)) // both damaged
	f.Add(make([]byte, 64), s1)             // zero-filled slot
	f.Add(s1, s0)                           // each in the other's slot
	f.Add(absurd, s1)                       // absurd length
	f.Add(append(append([]byte(nil), s0...), "trailing"...), []byte("garbage"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		files := [][]byte{a, b}
		for i, data := range files {
			if err := os.WriteFile(filepath.Join(dir, []string{"state.0", "state.1"}[i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, rec, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("recovery errored: %v", err)
		}
		var want []byte
		var best uint64
		for i, data := range files {
			if seq, r := verify(data, i); r != nil && seq > best {
				best, want = seq, r
			}
		}
		if !bytes.Equal(rec, want) || (rec == nil) != (want == nil) {
			t.Fatalf("recovered %q, want %q", rec, want)
		}
		if err := j.Append([]byte("after-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()
		_, again, err := Open(dir, Config{})
		if err != nil || string(again) != "after-recovery" {
			t.Fatalf("after one append: %q, %v", again, err)
		}
	})
}

// verify decodes one slot file's frame independently of readSlot.
func verify(data []byte, slot int) (uint64, []byte) {
	if len(data) < headerLen || string(data[:8]) != magic {
		return 0, nil
	}
	seq := binary.BigEndian.Uint64(data[8:])
	n := int(binary.BigEndian.Uint32(data[16:]))
	if seq%2 != uint64(slot) || n > len(data)-headerLen {
		return 0, nil
	}
	rec := data[headerLen : headerLen+n]
	if checksum(data[8:20], rec) != binary.BigEndian.Uint32(data[20:]) {
		return 0, nil
	}
	return seq, rec
}
