package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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

// frame wraps a hand-made body in a valid plain header, as a hostile peer
// could: only the body is wrong.
func frame(body []byte) []byte {
	b := append(make([]byte, headerLen, headerLen+len(body)), body...)
	copy(b, Magic)
	binary.BigEndian.PutUint32(b[offVersion:], Version)
	binary.BigEndian.PutUint32(b[offLen:], uint32(len(body)))
	binary.BigEndian.PutUint32(b[offBodyLen:], uint32(len(body)))
	binary.BigEndian.PutUint32(b[offCRC:], checksum(b))
	return b
}

// plainBody is the body EncodeBytes writes for img under job id "j",
// whose first byte is the id's length, 1.
func plainBody(t testing.TB, img *cvm.Image) []byte {
	t.Helper()
	blob, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		t.Fatal(err)
	}
	return blob[headerLen:]
}

// TestDecodeRefusesMalformedBodies: a body behind a valid header and CRC
// is still refused as ErrCorrupt when a number is not in its minimal
// form, a count exceeds the bytes left, the image ends early or bytes
// follow it; a deflated blob is refused when its stream and its announced
// body length disagree.
func TestDecodeRefusesMalformedBodies(t *testing.T) {
	img := makeImage(t, cvm.SpinProgram(10), 5)
	body := plainBody(t, img)
	if body[0] != 1 {
		t.Fatalf("body starts %#x, want the job id's length 1", body[0])
	}
	with := func(prefix ...byte) []byte { return append(prefix, body[1:]...) }
	var count bodyWriter
	count.putUint(1 << 40)
	cases := map[string][]byte{
		"one-byte value in the long form": frame(with(0xff, 0x01)),
		"leading zero byte":               frame(with(0xfe, 0x00, 0x01)),
		"bad byte count":                  frame(with(0x80)),
		"count past the end":              frame(with(count.buf...)),
		"ends early":                      frame(body[:len(body)-1]),
		"byte after the image":            frame(append(body[:len(body):len(body)], 0)),
	}
	packed, err := EncodeBytesWith(Meta{JobID: "j"}, makeImage(t, cvm.SumProgram(50), 0), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	bodyLen := binary.BigEndian.Uint32(packed[offBodyLen:])
	for name, n := range map[string]uint32{
		"inflates short": bodyLen + 1, "inflates long": bodyLen - 1, "deflate bomb": maxPayloadBytes,
	} {
		b := append([]byte(nil), packed...)
		binary.BigEndian.PutUint32(b[offBodyLen:], n)
		binary.BigEndian.PutUint32(b[offCRC:], checksum(b))
		cases[name] = b
	}
	plain, err := EncodeBytes(Meta{JobID: "j"}, img)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(plain[offBodyLen:], uint32(len(body)+1))
	binary.BigEndian.PutUint32(plain[offCRC:], checksum(plain))
	cases["plain body length differs"] = plain
	for name, blob := range cases {
		if _, _, err := DecodeBytes(blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, _, err := DecodeBytes(frame(body)); err != nil {
		t.Fatalf("the unmodified body is refused: %v", err)
	}
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
	// No Version 2 decoder is kept: a blob from before Version 3 is
	// refused as a version, not as garbage.
	v2, err := os.ReadFile(filepath.Join("testdata", "v2-small-plain.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBytes(v2); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2 blob: err = %v, want ErrBadVersion", err)
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

// TestDeflateStreamAndEarlyAbandon: a compressible body past the probe
// deflates, fed in chunks, to exactly the stream one Write of the whole
// payload produces. A body of random words is given up on after the
// probe and kept plain, its output buffer never grown past the probe's
// room.
func TestDeflateStreamAndEarlyAbandon(t *testing.T) {
	prog := cvm.MustAssemble("big", ".bss\nbuf: .space 262144\n.text\nstart:\n HALT 0\n")
	img := makeImage(t, prog, 0)
	for i := range img.Mem {
		img.Mem[i] = int64(i % 5000)
	}
	plain, err := EncodeBytes(Meta{JobID: "d/1"}, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain)-headerLen < 2*deflateProbe {
		t.Fatalf("%d-byte body does not reach past the probe", len(plain)-headerLen)
	}
	packed, err := EncodeBytesWith(Meta{JobID: "d/1"}, img, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	fw, _ := flate.NewWriter(&want, flate.BestSpeed)
	if _, err := fw.Write(plain[headerLen:]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(packed[headerLen:], want.Bytes()) {
		t.Fatalf("chunked deflate wrote %d bytes, one Write %d", len(packed)-headerLen, want.Len())
	}

	r := rand.New(rand.NewSource(28))
	noise := makeImage(t, cvm.MustAssemble("noise", ".bss\nbuf: .space 131072\n.text\nstart:\n HALT 0\n"), 0)
	for i := range noise.Mem {
		noise.Mem[i] = r.Int63()
	}
	plain, err = EncodeBytes(Meta{JobID: "d/2"}, noise)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := deflate(plain)
	if ok || cap(out) > headerLen+deflateProbe+deflateProbe/64 {
		t.Fatalf("random words: deflate kept = %v with a %d-byte buffer for a %d-byte body", ok, cap(out), len(plain))
	}
	kept, err := EncodeBytesWith(Meta{JobID: "d/2"}, noise, Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, plain) {
		t.Fatal("an abandoned deflate does not leave the plain blob")
	}
}
