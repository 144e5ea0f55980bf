package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"condor/internal/cvm"
)

// withValidCRC rewrites the header's CRC field to match the flags, the
// lengths and the payload the header announces, so mutated bytes get
// past the checksum and reach the inflate, body and image-validation
// layers. Input too short to hold that payload is returned unchanged.
func withValidCRC(data []byte) []byte {
	if len(data) < headerLen {
		return data
	}
	n := binary.BigEndian.Uint32(data[offLen:])
	if uint64(n) > uint64(len(data)-headerLen) {
		return data
	}
	out := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(out[offCRC:], checksum(out[:headerLen+int(n)]))
	return out
}

// FuzzDecode feeds arbitrary bytes to the checkpoint decoder, as a
// stored file or a peer's PlaceRequest would. It must never panic, and
// whatever it accepts must restore (so an exec station can run it) and
// encode again to the very body it came from (the encoding is
// canonical: one image, one body).
func FuzzDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			data = withValidCRC(data)
		}
		meta, img, err := DecodeBytes(data)
		if err != nil {
			if img != nil {
				t.Fatalf("Decode returned an image with error %v", err)
			}
			return
		}
		if _, err := cvm.Restore(img, cvm.NewMemHost()); err != nil {
			t.Fatalf("Decode accepted an image Restore refuses: %v", err)
		}
		body, err := openBody(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EncodeBytes(meta, img)
		if err != nil {
			t.Fatalf("Decode accepted a checkpoint Encode refuses: %v", err)
		}
		if !bytes.Equal(again[headerLen:], body) {
			t.Fatalf("accepted body (%d bytes) re-encodes differently (%d bytes)", len(body), len(again)-headerLen)
		}
	})
}

// FuzzPutBlob drives both stores' PutBlob with FuzzDecode's inputs, as a
// vacating execution machine would. A blob is accepted iff DecodeBytes
// accepts it and it names the job; an accepted blob is stored verbatim,
// and a refused one leaves the previous checkpoint and Usage unchanged.
func FuzzPutBlob(f *testing.F) {
	addDecodeSeeds(f)
	const jobID = "j" // the job most seeds name
	prev := makeImage(f, cvm.SumProgram(20), 7)
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC {
			data = withValidCRC(data)
		}
		meta, _, err := DecodeBytes(data)
		wantOK := err == nil && meta.JobID == jobID
		dir, err := NewDirStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		stores := map[string]Store{"mem": NewMemStore(0, false), "mem-shared": NewMemStore(0, true), "dir": dir}
		for name, s := range stores {
			if err := s.Put(Meta{JobID: jobID}, prev); err != nil {
				t.Fatal(err)
			}
			_, before, err := s.GetBlob(jobID)
			if err != nil {
				t.Fatal(err)
			}
			usage := s.Usage()
			_, err = s.PutBlob(jobID, data)
			if (err == nil) != wantOK {
				t.Fatalf("%s: PutBlob err = %v, want accepted = %v", name, err, wantOK)
			}
			_, after, gerr := s.GetBlob(jobID)
			if gerr != nil {
				t.Fatalf("%s: GetBlob after PutBlob: %v", name, gerr)
			}
			switch {
			case wantOK && !bytes.Equal(after, data):
				t.Fatalf("%s: accepted blob not stored verbatim", name)
			case !wantOK && !bytes.Equal(after, before):
				t.Fatalf("%s: refused blob replaced the previous checkpoint", name)
			case !wantOK && s.Usage() != usage:
				t.Fatalf("%s: refused blob changed usage %+v -> %+v", name, usage, s.Usage())
			}
		}
	})
}

// FuzzStoreOps runs one sequence of store operations on a shared
// in-memory store and on a directory store of the same capacity: Put of
// one of two programs, PutBlob of a corrupt blob or of another job's
// blob, Delete, and reopening the directory store. After every step both
// stores must agree on Usage, List, Has and the GetBlob bytes, and at the
// end a directory store opened afresh must charge what the running
// totals charge.
func FuzzStoreOps(f *testing.F) {
	ids := [3]string{"ws1/1", "ws1/2", "ws2/1"}
	progs := [2]*cvm.Program{cvm.SumProgram(40), cvm.SpinProgram(40)}
	// blobs[job][prog][gen] are checkpoints a job may store; the two
	// generations differ in steps and so in their data.
	var blobs [3][2][2][]byte
	for j, id := range ids {
		for p, prog := range progs {
			for g := range blobs[j][p] {
				img := makeImage(f, prog, uint64(3+40*g))
				blob, err := EncodeBytesWith(Meta{JobID: id, TextChecksum: prog.TextChecksum(), Sequence: uint64(g)}, img, Options{Compress: true})
				if err != nil {
					f.Fatal(err)
				}
				blobs[j][p][g] = blob
			}
		}
	}
	// A small disk holds the first program's text and one and a half of
	// its checkpoints' data, so a third checkpoint of it is refused.
	probe := NewMemStore(0, true)
	if _, err := probe.PutBlob(ids[0], blobs[0][0][0]); err != nil {
		f.Fatal(err)
	}
	one := probe.Usage()
	small := one.Bytes + (one.Bytes-one.TextBytes)*3/2

	const (
		opPut = iota
		opCorrupt
		opForeign
		opDelete
		opReopen
		numOps
	)
	op := func(kind, job, prog, gen int) []byte { return []byte{byte(kind), byte(job + 3*prog + 6*gen)} }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(op(opPut, 0, 0, 0), op(opPut, 1, 0, 0), op(opPut, 2, 1, 0), op(opReopen, 0, 0, 0), op(opDelete, 1, 0, 0)), false)
	f.Add(seq(op(opPut, 0, 0, 0), op(opPut, 1, 0, 1), op(opPut, 2, 0, 0), op(opPut, 0, 1, 1), op(opDelete, 0, 0, 0), op(opPut, 2, 0, 0)), true)
	f.Add(seq(op(opPut, 0, 1, 0), op(opCorrupt, 0, 0, 1), op(opForeign, 0, 0, 0), op(opReopen, 0, 0, 0), op(opPut, 0, 0, 1)), true)
	f.Fuzz(func(t *testing.T, ops []byte, smallDisk bool) {
		capacity := int64(0)
		if smallDisk {
			capacity = small
		}
		path := t.TempDir()
		open := func() Store {
			s, err := NewDirStore(path, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		mem, dir := NewMemStore(capacity, true), open()
		for i := 0; len(ops) >= 2 && i < 16; ops, i = ops[2:], i+1 {
			kind, arg := int(ops[0]%numOps), int(ops[1])
			j, p, g := arg%3, arg/3%2, arg/6%2
			var blob []byte
			switch kind {
			case opPut:
				blob = blobs[j][p][g]
			case opCorrupt:
				blob = bytes.Clone(blobs[j][p][g])
				blob[len(blob)-1-arg%16] ^= 0x5a
			case opForeign:
				blob = blobs[(j+1)%3][p][g]
			case opDelete:
				merr, derr := mem.Delete(ids[j]), dir.Delete(ids[j])
				if merr != nil || derr != nil {
					t.Fatalf("step %d: delete %s: mem %v, dir %v", i, ids[j], merr, derr)
				}
			case opReopen:
				dir = open()
			}
			if blob != nil {
				_, merr := mem.PutBlob(ids[j], blob)
				_, derr := dir.PutBlob(ids[j], blob)
				if (merr == nil) != (derr == nil) || errors.Is(merr, ErrDiskFull) != errors.Is(derr, ErrDiskFull) {
					t.Fatalf("step %d: PutBlob(%s): mem %v, dir %v", i, ids[j], merr, derr)
				}
				if kind != opPut && merr == nil {
					t.Fatalf("step %d: bad blob accepted", i)
				}
			}
			sameStores(t, fmt.Sprintf("step %d", i), ids[:], mem, dir)
		}
		sameStores(t, "reopened", ids[:], dir, open())
	})
}

// sameStores fails the test unless a and b report the same Usage and
// List and hold the same blobs for ids.
func sameStores(t *testing.T, when string, ids []string, a, b Store) {
	t.Helper()
	if ua, ub := a.Usage(), b.Usage(); ua != ub {
		t.Fatalf("%s: usage %+v vs %+v", when, ua, ub)
	}
	if la, lb := a.List(), b.List(); !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: list %+v vs %+v", when, la, lb)
	}
	for _, id := range ids {
		_, ba, ea := a.GetBlob(id)
		_, bb, eb := b.GetBlob(id)
		if a.Has(id) != b.Has(id) || (ea == nil) != (eb == nil) || !bytes.Equal(ba, bb) {
			t.Fatalf("%s: job %s: has %v/%v, blob %d/%d bytes, err %v/%v", when, id, a.Has(id), b.Has(id), len(ba), len(bb), ea, eb)
		}
	}
}

// addDecodeSeeds seeds a (data, fixCRC) fuzz target with the inputs of
// the corruption tests in format_test.go.
func addDecodeSeeds(f *testing.F) {
	img := makeImage(f, cvm.SpinProgram(10), 5)
	plain, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		f.Fatal(err)
	}
	packed, err := EncodeBytesWith(Meta{JobID: "c/2"}, makeImage(f, cvm.SumProgram(50), 0), Options{Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := EncodeBytes(Meta{JobID: "j", Arch: "sun3"}, img)
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(b []byte, at int, xor byte) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= xor
		return out
	}
	f.Add([]byte{}, false)
	f.Add([]byte("NOTACKPTxxxxxxxxxxxxxxxxxxxx"), false)
	f.Add(plain, false)
	f.Add(packed, false)
	f.Add(foreign, false)
	for _, cut := range []int{5, len(Magic) + 11, len(plain) / 2, len(plain) - 1} {
		f.Add(plain[:cut], false)
	}
	f.Add(mutate(plain, len(plain)-3, 0xff), false)  // payload byte, CRC catches it
	f.Add(mutate(plain, len(plain)-3, 0xff), true)   // same, past the CRC into the body
	f.Add(mutate(packed, len(packed)-2, 0x55), true) // into a broken deflate stream
	f.Add(mutate(plain, offVersion+3, 99), false)    // version field
	absurd := append([]byte(nil), plain...)
	binary.BigEndian.PutUint32(absurd[offLen:], 0xffffffff)
	f.Add(absurd, false)
	ours, err := EncodeBytesWith(Meta{JobID: "j"}, makeImage(f, cvm.SumProgram(50), 9), Options{Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ours, false)                                     // a compressed blob the job accepts
	f.Add(append(plain[:len(plain):len(plain)], 0), false) // a byte past the payload

	// Bodies behind a valid header: a stack no station can allocate, a
	// number in a non-minimal form, a count past the end, and a deflated
	// blob announcing a body its payload cannot inflate to.
	huge := *img
	huge.StackCap = 1 << 62
	var w bodyWriter
	w.body(&Meta{JobID: "j", Arch: ArchCVM64}, &huge)
	f.Add(frame(w.buf), false)
	body := plain[headerLen:]
	f.Add(frame(append([]byte{0xff, 0x01}, body[1:]...)), false)
	f.Add(frame(append([]byte{0xfb, 0x01, 0, 0, 0, 0}, body[1:]...)), false)
	bomb := append([]byte(nil), packed...)
	binary.BigEndian.PutUint32(bomb[offBodyLen:], maxPayloadBytes)
	f.Add(bomb, true)
}
