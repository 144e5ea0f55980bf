package codec

import (
	"bytes"
	"math"
	"testing"
)

// TestCodecRoundTripsBoundaryValues: numbers at every length boundary,
// and floats whose bits do and do not compress, read back as written
// and fill exactly their UintLen.
func TestCodecRoundTripsBoundaryValues(t *testing.T) {
	for _, x := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 1<<56 - 1, 1 << 56, math.MaxUint64} {
		b := AppendUint(nil, x)
		r := NewReader(b)
		if got := r.ReadUint(); got != x || r.End() != nil || len(b) != UintLen(x) {
			t.Fatalf("uint %#x: read %#x (%v), %d bytes, UintLen %d", x, got, r.Err(), len(b), UintLen(x))
		}
	}
	for _, x := range []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64} {
		r := NewReader(AppendInt(nil, x))
		if got := r.ReadInt(); got != x || r.End() != nil {
			t.Fatalf("int %d: read %d (%v)", x, got, r.Err())
		}
	}
	for _, f := range []float64{0, 1, -2.5, math.Inf(-1), math.SmallestNonzeroFloat64, math.NaN()} {
		r := NewReader(AppendFloat(nil, f))
		if got := r.ReadFloat(); math.Float64bits(got) != math.Float64bits(f) || r.End() != nil {
			t.Fatalf("float %v: read %v (%v)", f, got, r.Err())
		}
	}
	if n := len(AppendFloat(nil, 2)); n != 1 {
		t.Fatalf("float 2 takes %d bytes; with its bytes reversed it is one", n)
	}
	b := AppendBytes(AppendString(AppendBool(AppendInts(nil, []int64{-1, 300, 0}), true), "héllo"), []byte{0, 1})
	r := NewReader(b)
	ints, ok, s, p := r.ReadInts(), r.ReadBool(), r.ReadString(), r.ReadBytes()
	if len(ints) != 3 || ints[0] != -1 || ints[1] != 300 || !ok || s != "héllo" || !bytes.Equal(p, []byte{0, 1}) || r.End() != nil {
		t.Fatalf("mixed values read back as %v %v %q %v (%v)", ints, ok, s, p, r.Err())
	}
	if len(b) != IntsLen([]int64{-1, 300, 0})+1+1+len("héllo")+1+2 {
		t.Fatalf("IntsLen disagrees with AppendInts")
	}
}

// TestCodecRefusesNonCanonicalInput: each value has one encoding, and a
// count cannot promise more than the input holds.
func TestCodecRefusesNonCanonicalInput(t *testing.T) {
	for name, tc := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"one-byte value in the long form": {[]byte{0xff, 0x01}, func(r *Reader) { r.ReadUint() }},
		"leading zero byte":               {[]byte{0xfe, 0x00, 0x81}, func(r *Reader) { r.ReadUint() }},
		"byte count above eight":          {[]byte{0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, func(r *Reader) { r.ReadUint() }},
		"value cut short":                 {[]byte{0xfe, 0x01}, func(r *Reader) { r.ReadUint() }},
		"empty":                           {nil, func(r *Reader) { r.ReadInt() }},
		"bool 2":                          {[]byte{2}, func(r *Reader) { r.ReadBool() }},
		"string past the end":             {[]byte{3, 'a', 'b'}, func(r *Reader) { r.ReadString() }},
		"word count past the end":         {[]byte{0xfc, 0x01, 0, 0, 0}, func(r *Reader) { r.ReadInts() }},
		"trailing byte":                   {[]byte{1, 0}, func(r *Reader) { r.ReadUint() }},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if r.End() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCodecAlias: ReadBytes copies unless the input belongs to the
// decoded values.
func TestCodecAlias(t *testing.T) {
	in := AppendBytes(nil, []byte("abc"))
	for _, alias := range []bool{false, true} {
		r := NewReader(in)
		r.Alias = alias
		p := r.ReadBytes()
		if shared := &p[0] == &in[1]; shared != alias {
			t.Fatalf("Alias %v: slice shares the input = %v", alias, shared)
		}
		if alias && cap(p) != len(p) {
			t.Fatalf("aliased slice has cap %d past the value's %d bytes", cap(p), len(p))
		}
	}
}
