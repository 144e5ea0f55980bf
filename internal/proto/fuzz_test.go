package proto

import (
	"bytes"
	"reflect"
	"testing"

	"condor/internal/cvm"
)

// FuzzDecodeProgram feeds SubmitRequest.ProgramBlob's decoder arbitrary
// bytes, as a submitting client's request would. It must never panic,
// and whatever it accepts must be a valid program that re-encodes to
// exactly the bytes it came from.
func FuzzDecodeProgram(f *testing.F) {
	for _, p := range []*cvm.Program{
		cvm.SumProgram(10),
		cvm.PrimeCountProgram(100),
		cvm.MustAssemble("bss", ".data\nw: .word 7\n.bss\nb: .space 4\n.text\nstart:\n HALT 0\n"),
		{Name: "bad", Text: []cvm.Instr{{Op: cvm.OpJmp, A: 99}}}, // fails Validate
	} {
		blob := EncodeProgram(p)
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not a program"))
	f.Add(append(EncodeProgram(cvm.SumProgram(10)), 0))                             // a byte past the program
	f.Add(append([]byte{0x03, 's', 'u', 'm', 0xf8}, bytes.Repeat([]byte{1}, 8)...)) // a hostile instruction count
	f.Fuzz(func(t *testing.T, blob []byte) {
		p, err := DecodeProgram(blob)
		if err != nil {
			if p != nil {
				t.Fatalf("DecodeProgram returned a program with error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid program: %v", err)
		}
		if again := EncodeProgram(p); !bytes.Equal(again, blob) {
			t.Fatalf("accepted program re-encodes differently:\n got %x\nwant %x", again, blob)
		}
		q, err := DecodeProgram(EncodeProgram(p))
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program (%v):\n%+v\n%+v", err, p, q)
		}
	})
}
