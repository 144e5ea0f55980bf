package ckpt

import (
	"bytes"
	"encoding/binary"
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
		for _, s := range []Store{NewMemStore(0, false), NewMemStore(0, true), dir} {
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
				t.Fatalf("%T: PutBlob err = %v, want accepted = %v", s, err, wantOK)
			}
			_, after, gerr := s.GetBlob(jobID)
			if gerr != nil {
				t.Fatalf("%T: GetBlob after PutBlob: %v", s, gerr)
			}
			switch {
			case wantOK && !bytes.Equal(after, data):
				t.Fatalf("%T: accepted blob not stored verbatim", s)
			case !wantOK && !bytes.Equal(after, before):
				t.Fatalf("%T: refused blob replaced the previous checkpoint", s)
			case !wantOK && s.Usage() != usage:
				t.Fatalf("%T: refused blob changed usage %+v -> %+v", s, usage, s.Usage())
			}
		}
	})
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
