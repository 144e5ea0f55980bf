package ckpt

import (
	"errors"
	"strings"
	"testing"

	"condor/internal/cvm"
)

func makeImage(t testing.TB, prog *cvm.Program, steps uint64) *cvm.Image {
	t.Helper()
	v, err := cvm.New(prog, cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if steps > 0 {
		if _, err := v.Run(steps); err != nil {
			t.Fatal(err)
		}
	}
	return v.Snapshot()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := makeImage(t, cvm.SumProgram(500), 37)
	meta := Meta{JobID: "ws01/7", Owner: "userA", ProgramName: "sum", Sequence: 3, CPUSteps: 37}
	blob, err := EncodeBytes(meta, img)
	if err != nil {
		t.Fatal(err)
	}
	gotMeta, gotImg, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.JobID != meta.JobID || gotMeta.Owner != meta.Owner || gotMeta.Sequence != 3 {
		t.Fatalf("meta round trip = %+v", gotMeta)
	}
	if gotMeta.Arch != ArchCVM64 {
		t.Fatalf("arch defaulting failed: %q", gotMeta.Arch)
	}
	if gotImg.PC != img.PC || gotImg.Steps != img.Steps {
		t.Fatalf("image round trip: pc %d/%d steps %d/%d", gotImg.PC, img.PC, gotImg.Steps, img.Steps)
	}
	// The decoded image must actually resume and finish correctly.
	host := cvm.NewMemHost()
	v, err := cvm.Restore(gotImg, host)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(1_000_000); st != cvm.StatusHalted || err != nil {
		t.Fatalf("resumed: st %v err %v", st, err)
	}
	if got := strings.TrimSpace(host.Stdout()); got != "125250" {
		t.Fatalf("sum(500) after checkpoint = %q", got)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	_, _, err := DecodeBytes([]byte("NOTACKPTxxxxxxxxxxxxxxxxxxxx"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	img := makeImage(t, cvm.SpinProgram(10), 5)
	blob, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, len(Magic) + 11, len(blob) / 2, len(blob) - 1} {
		if _, _, err := DecodeBytes(blob[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	img := makeImage(t, cvm.SpinProgram(10), 5)
	blob, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; CRC must catch it.
	blob[len(blob)-3] ^= 0xff
	if _, _, err := DecodeBytes(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	img := makeImage(t, cvm.SpinProgram(10), 5)
	blob, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(Magic)+3] = 99 // version field
	if _, _, err := DecodeBytes(blob); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsForeignArchitecture(t *testing.T) {
	img := makeImage(t, cvm.SpinProgram(10), 5)
	blob, err := EncodeBytes(Meta{JobID: "j", Arch: "sun3"}, img)
	if err != nil {
		t.Fatal(err)
	}
	// Arch defaulting only applies to empty arch; "sun3" is preserved and
	// must be refused on restore, per the §5.4 constraint.
	if _, _, err := DecodeBytes(blob); !errors.Is(err, ErrArchMismatch) {
		t.Fatalf("err = %v, want ErrArchMismatch", err)
	}
}

func TestEncodeRejectsNilOrInvalidImage(t *testing.T) {
	if _, err := EncodeBytes(Meta{JobID: "j"}, nil); err == nil {
		t.Fatal("nil image encoded")
	}
	img := makeImage(t, cvm.SpinProgram(10), 5)
	img.SP = 99 // corrupt
	if _, err := EncodeBytes(Meta{JobID: "j"}, img); err == nil {
		t.Fatal("invalid image encoded")
	}
}

func TestCompressedRoundTripAndSmaller(t *testing.T) {
	// A big, mostly-zero bss: deflate should crush it.
	prog := cvm.MustAssemble("sparse", ".bss\nbuf: .space 65536\n.text\nstart:\n HALT 0\n")
	vm, err := cvm.New(prog, cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	img := vm.Snapshot()
	meta := Meta{JobID: "c/1"}
	plain, err := EncodeBytes(meta, img)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := EncodeBytesWith(meta, img, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain)/4 {
		t.Fatalf("compression weak: %d vs %d bytes", len(packed), len(plain))
	}
	gotMeta, gotImg, err := DecodeBytes(packed)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.JobID != "c/1" || len(gotImg.Mem) != len(img.Mem) {
		t.Fatalf("compressed round trip lost data: %+v", gotMeta)
	}
	// And the restored VM is valid.
	if _, err := cvm.Restore(gotImg, cvm.NewMemHost()); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedCorruptionDetected(t *testing.T) {
	vm, err := cvm.New(cvm.SumProgram(50), cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeBytesWith(Meta{JobID: "c/2"}, vm.Snapshot(), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-2] ^= 0x55
	if _, _, err := DecodeBytes(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestAbsurdPayloadLengthRejected(t *testing.T) {
	vm, err := cvm.New(cvm.SpinProgram(5), cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeBytes(Meta{JobID: "c/3"}, vm.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the payload-length field with a huge value.
	for i := 0; i < 4; i++ {
		blob[len(Magic)+8+i] = 0xff
	}
	_, _, err = DecodeBytes(blob)
	if err == nil {
		t.Fatal("absurd length accepted")
	}
}
