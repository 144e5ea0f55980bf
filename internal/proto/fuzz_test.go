package proto

import (
	"reflect"
	"testing"

	"condor/internal/cvm"
)

// FuzzDecodeProgram feeds SubmitRequest.ProgramBlob's decoder arbitrary
// bytes, as a submitting client's request would. It must never panic,
// and whatever it accepts must be a valid program that survives a round
// trip through EncodeProgram unchanged.
func FuzzDecodeProgram(f *testing.F) {
	for _, p := range []*cvm.Program{
		cvm.SumProgram(10),
		cvm.PrimeCountProgram(100),
		cvm.MustAssemble("bss", ".data\nw: .word 7\n.bss\nb: .space 4\n.text\nstart:\n HALT 0\n"),
		{Name: "bad", Text: []cvm.Instr{{Op: cvm.OpJmp, A: 99}}}, // fails Validate
	} {
		blob, err := EncodeProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not gob"))
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
		again, err := EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodeProgram(again)
		if err != nil {
			t.Fatalf("accepted program does not decode after re-encoding: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v", p, q)
		}
	})
}
