package ckpt

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"condor/internal/cvm"
)

// withValidCRC rewrites the header's CRC field to match the flags word
// and the payload the header announces, so mutated bytes get past the
// checksum and reach the inflate, gob and image-validation layers. Input
// too short to hold that payload is returned unchanged.
func withValidCRC(data []byte) []byte {
	header := len(Magic) + 16
	if len(data) < header {
		return data
	}
	n := binary.BigEndian.Uint32(data[len(Magic)+8:])
	if uint64(n) > uint64(len(data)-header) {
		return data
	}
	out := append([]byte(nil), data...)
	crc := crc32.NewIEEE()
	crc.Write(out[len(Magic)+4 : len(Magic)+8])
	crc.Write(out[header : header+int(n)])
	binary.BigEndian.PutUint32(out[len(Magic)+12:], crc.Sum32())
	return out
}

// FuzzDecode feeds arbitrary bytes to the checkpoint decoder, as a
// stored file or a peer's PlaceRequest would. It must never panic;
// whatever it accepts must be a checkpoint this package could have
// written, so it encodes again. Seeds are the inputs of the corruption
// tests in format_test.go.
func FuzzDecode(f *testing.F) {
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
