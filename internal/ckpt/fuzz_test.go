package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"condor/internal/cvm"
)

// withValidCRC rewrites the header's CRC field to match the flags word
// and the payload the header announces, so mutated bytes get past the
// checksum and reach the inflate, gob and image-validation layers. Input
// too short to hold that payload is returned unchanged.
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
// stored file or a peer's PlaceRequest would. It must never panic;
// whatever it accepts must be a checkpoint this package could have
// written, so it encodes again.
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
		if _, err := EncodeBytes(meta, img); err != nil {
			t.Fatalf("Decode accepted a checkpoint Encode refuses: %v", err)
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
	f.Add(mutate(plain, len(plain)-3, 0xff), true)   // same, past the CRC into gob
	f.Add(mutate(packed, len(packed)-2, 0x55), true) // into a broken deflate stream
	f.Add(mutate(plain, len(Magic)+3, 99), false)    // version field
	absurd := append([]byte(nil), plain...)
	binary.BigEndian.PutUint32(absurd[len(Magic)+8:], 0xffffffff)
	f.Add(absurd, false)
	ours, err := EncodeBytesWith(Meta{JobID: "j"}, makeImage(f, cvm.SumProgram(50), 9), Options{Compress: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ours, false)                                     // a compressed blob the job accepts
	f.Add(append(plain[:len(plain):len(plain)], 0), false) // a byte past the payload
}
