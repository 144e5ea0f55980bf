// Package codec is the one byte encoding the system writes: checkpoint
// bodies (internal/ckpt), wire envelopes and messages (internal/wire and
// internal/proto), and the coordinator's saved state.
//
// Values are appended to a byte slice by the Append functions and read
// back, in the same order, by a Reader. There are no type descriptors: a
// reader knows what it expects next.
//
// Numbers use gob's byte encoding: an unsigned value below 128 is one
// byte; a larger one is its byte count, negated, then its minimal
// big-endian bytes. A signed value is zigzagged first (the low bit is the
// sign). A float is its IEEE 754 bits with the bytes reversed, as an
// unsigned value, so round numbers are short. A bool is the number 0 or
// 1. A string or byte slice is its length, then its bytes.
//
// The encoding is canonical. A Reader refuses a number in a non-minimal
// form, a bool other than 0 or 1, and a count larger than the bytes left
// can hold, so every input it accepts re-encodes to itself and a hostile
// count cannot make it allocate more than a small multiple of its input.
package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// UintLen is the encoded length of x: one byte, or a count byte and up
// to eight value bytes.
func UintLen(x uint64) int {
	if x < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(x)+7)/8
}

// AppendUint appends x.
func AppendUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := UintLen(x) - 1
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	return append(append(b, byte(-n)), be[8-n:]...)
}

// Zigzag maps a signed value to its unsigned form, the sign in the low
// bit.
func Zigzag(x int64) uint64 { return uint64(x<<1 ^ x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendInt appends x.
func AppendInt(b []byte, x int64) []byte { return AppendUint(b, Zigzag(x)) }

// AppendBool appends v.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends f.
func AppendFloat(b []byte, f float64) []byte {
	return AppendUint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// AppendString appends s.
func AppendString(b []byte, s string) []byte {
	return append(AppendUint(b, uint64(len(s))), s...)
}

// AppendBytes appends p.
func AppendBytes(b []byte, p []byte) []byte {
	return append(AppendUint(b, uint64(len(p))), p...)
}

// IntsLen is the encoded length of v as AppendInts writes it.
func IntsLen(v []int64) int {
	n := UintLen(uint64(len(v)))
	for _, x := range v {
		n += UintLen(Zigzag(x))
	}
	return n
}

// AppendInts appends a word slice: its count, then each word. While b
// has room for the longest number, a long word is one big-endian store
// of its value, shifted to the top, behind its count byte; the store may
// zero bytes of b's spare capacity past the word.
func AppendInts(b []byte, v []int64) []byte {
	b = AppendUint(b, uint64(len(v)))
	for _, x := range v {
		u := Zigzag(x)
		if u < 0x80 { // the common one-byte word, inline
			b = append(b, byte(u))
			continue
		}
		n := (bits.Len64(u) + 7) / 8
		if l := len(b); cap(b)-l > 8 {
			b = b[:l+9]
			b[l] = byte(-n)
			binary.BigEndian.PutUint64(b[l+1:], u<<(64-8*n))
			b = b[:l+1+n]
			continue
		}
		b = AppendUint(b, u)
	}
	return b
}

// Reader reads what the Append functions write. The first malformed
// value sets its error and empties it, so every later read returns zero;
// callers read a whole structure and check Err (or End) once.
type Reader struct {
	b   []byte
	err error
	// Alias lets ReadBytes return slices of the input instead of copies.
	// Set it only when the input belongs to the decoded values: a buffer
	// that is reused for the next input must never be aliased.
	Alias bool
}

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err is the first error, or nil.
func (r *Reader) Err() error { return r.err }

// End is Err, after refusing unread bytes: an input must be exactly one
// value.
func (r *Reader) End() error {
	if len(r.b) != 0 {
		r.Fail("trailing bytes")
	}
	return r.err
}

// Fail records a malformed input (the first failure wins) and empties
// the reader.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = errors.New("codec: " + what)
	}
	r.b = nil
}

// ReadUint reads one number, refusing a non-minimal form so that every
// value has exactly one encoding.
func (r *Reader) ReadUint() uint64 {
	if len(r.b) == 0 {
		r.Fail("ends early")
		return 0
	}
	c := r.b[0]
	if c < 0x80 {
		r.b = r.b[1:]
		return uint64(c)
	}
	n := 256 - int(c) // the negated byte count
	if n > 8 || n >= len(r.b) {
		r.Fail("malformed number")
		return 0
	}
	var be [8]byte // the value bytes, left-aligned in one big-endian word
	copy(be[:], r.b[1:])
	x := binary.BigEndian.Uint64(be[:]) >> (64 - 8*n)
	if r.b[1] == 0 || x < 0x80 {
		r.Fail("non-minimal number")
		return 0
	}
	r.b = r.b[1+n:]
	return x
}

// ReadInt reads a signed number.
func (r *Reader) ReadInt() int64 { return unzigzag(r.ReadUint()) }

// ReadBool reads a bool.
func (r *Reader) ReadBool() bool {
	switch r.ReadUint() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail("bool out of range")
	return false
}

// ReadFloat reads a float.
func (r *Reader) ReadFloat() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.ReadUint()))
}

// ReadCount reads a length, refused when the unread bytes cannot hold
// that many elements of at least minBytes each.
func (r *Reader) ReadCount(minBytes int) int {
	n := r.ReadUint()
	if n > uint64(len(r.b)/minBytes) {
		r.Fail("count exceeds the bytes left")
		return 0
	}
	return int(n)
}

// ReadString reads a string; it never shares memory with the input.
func (r *Reader) ReadString() string {
	n := r.ReadCount(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// ReadBytes reads a byte slice: nil when empty, a copy unless Alias is
// set.
func (r *Reader) ReadBytes() []byte {
	n := r.ReadCount(1)
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	if r.Alias {
		return p
	}
	return append([]byte(nil), p...)
}

// ReadInts reads a word slice; an empty one is nil.
func (r *Reader) ReadInts() []int64 {
	n := r.ReadCount(1)
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	b := r.b // a local cursor: no write barrier per word
	for i := range v {
		if len(b) > 8 { // room for the longest number: decode it in place
			if c := b[0]; c < 0x80 { // the common one-byte word
				v[i] = unzigzag(uint64(c))
				b = b[1:]
				continue
			} else if n := 256 - int(c); n <= 8 { // one big-endian load
				if x := binary.BigEndian.Uint64(b[1:9]) >> (64 - 8*n); b[1] != 0 && x >= 0x80 {
					v[i] = unzigzag(x)
					b = b[1+n:]
					continue
				}
			}
		}
		r.b = b // the input's last bytes, or a malformed number ReadInt refuses
		v[i] = r.ReadInt()
		b = r.b
	}
	r.b = b
	return v
}
