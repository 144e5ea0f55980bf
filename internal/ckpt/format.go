package ckpt

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"condor/internal/cvm"
)

// Magic identifies a Condor checkpoint file.
const Magic = "CNDRCKPT"

// Version is the current checkpoint format version. Version 2 added the
// flags word (compression); version-1 files are no longer produced but
// the constant history is: 1 = no flags word, 2 = flags word present.
const Version = 2

// ArchCVM64 is the architecture tag for the 64-bit word VM. A checkpoint
// written on one architecture can only be restored on the same one — the
// paper's §5.4 notes that a job started on a VAX could not move to a SUN.
const ArchCVM64 = "cvm64"

// Format-level errors, matchable with errors.Is.
var (
	ErrBadMagic     = errors.New("ckpt: bad magic (not a checkpoint file)")
	ErrBadVersion   = errors.New("ckpt: unsupported format version")
	ErrCorrupt      = errors.New("ckpt: payload checksum mismatch")
	ErrArchMismatch = errors.New("ckpt: architecture mismatch")
	ErrTruncated    = errors.New("ckpt: truncated file")
)

// Meta is the checkpoint header's descriptive portion.
type Meta struct {
	JobID        string `json:"jobId"`
	Owner        string `json:"owner"`
	ProgramName  string `json:"programName"`
	TextChecksum string `json:"textChecksum"`
	Arch         string `json:"arch"`
	// Sequence is the checkpoint generation number for the job; each new
	// checkpoint of the same job increments it.
	Sequence uint64 `json:"sequence"`
	// CPUSteps is the guest CPU consumed at checkpoint time, so progress
	// is visible without decoding the image.
	CPUSteps uint64 `json:"cpuSteps"`
	// SubmittedAtUnixMilli is when the job was originally submitted. It
	// rides every checkpoint generation so a schedd restart restores the
	// true submission time (and with it stable queue order) instead of
	// re-stamping recovered jobs with the recovery time.
	SubmittedAtUnixMilli int64 `json:"submittedAtUnixMilli,omitempty"`
	// Priority is the job's local queue priority, preserved across a
	// schedd restart for the same reason.
	Priority int `json:"priority,omitempty"`
	// TraceID is the job's distributed-trace identity (32 lowercase hex
	// chars, see internal/trace). It rides every checkpoint generation so
	// one trace keeps following the job across vacate/migrate hops,
	// schedd restarts, and placements through peers that predate trace
	// propagation on the wire.
	TraceID string `json:"traceID,omitempty"`
}

// The header: magic, then four big-endian words — version, flags,
// payload length, and a CRC-32 over the flags word and the payload.
const (
	offVersion = len(Magic)
	offFlags   = offVersion + 4
	offLen     = offFlags + 4
	offCRC     = offLen + 4
	headerLen  = offCRC + 4
)

// flag bits in the header's flags word.
const flagDeflate = 1 << 0

// maxPayloadBytes bounds a checkpoint payload (matches the wire frame
// cap) so a corrupt length field cannot trigger a huge allocation.
const maxPayloadBytes = 64 << 20

// Options tunes encoding.
type Options struct {
	// Compress deflates the payload. Checkpoint files are dominated by
	// word-aligned memory with small values, which deflate shrinks
	// severalfold — directly reducing the §3.1 transfer cost.
	Compress bool
}

// EncodeBytes encodes an uncompressed checkpoint for img. If meta.Arch is
// empty it defaults to ArchCVM64.
func EncodeBytes(meta Meta, img *cvm.Image) ([]byte, error) {
	return EncodeBytesWith(meta, img, Options{})
}

// EncodeBytesWith encodes a checkpoint in one pass: gob writes the
// metadata and image once, behind room reserved for the header; with
// Compress a pooled deflate writer packs that body into at most one
// second buffer, kept only when it is smaller. The returned slice is the
// blob itself.
func EncodeBytesWith(meta Meta, img *cvm.Image, opts Options) ([]byte, error) {
	if img == nil {
		return nil, errors.New("ckpt: nil image")
	}
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: refusing to encode invalid image: %w", err)
	}
	if meta.Arch == "" {
		meta.Arch = ArchCVM64
	}
	// gob hands the image over in one Write, so the buffer grows once to
	// the body's exact size: no size guess, no pooled payload buffer.
	plain := bytes.NewBuffer(make([]byte, headerLen, 1024))
	enc := gob.NewEncoder(plain)
	if err := enc.Encode(meta); err != nil {
		return nil, fmt.Errorf("ckpt: encode meta: %w", err)
	}
	if err := enc.Encode(img); err != nil {
		return nil, fmt.Errorf("ckpt: encode image: %w", err)
	}
	blob := plain.Bytes()
	var flags uint32
	if opts.Compress {
		if packed, ok := deflate(blob); ok {
			blob, flags = packed, flagDeflate
		}
	}
	copy(blob, Magic)
	binary.BigEndian.PutUint32(blob[offVersion:], Version)
	binary.BigEndian.PutUint32(blob[offFlags:], flags)
	binary.BigEndian.PutUint32(blob[offLen:], uint32(len(blob)-headerLen))
	binary.BigEndian.PutUint32(blob[offCRC:], checksum(blob))
	return blob, nil
}

// checksum is the header's CRC. It covers the flags word and the
// payload, so a corrupted flag cannot silently change interpretation.
func checksum(blob []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, blob[offFlags:offLen])
	return crc32.Update(crc, crc32.IEEETable, blob[headerLen:])
}

// deflaters pools BestSpeed writers: a fresh one costs ≈ 1.2 MB and 16
// allocations before it compresses a byte, and a Reset one writes the
// same stream.
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed) // fails only for a bad level
	return fw
}}

// deflate compresses plain's payload behind a fresh header. It reports
// false, and stops early, once the output would be no smaller than plain.
func deflate(plain []byte) ([]byte, bool) {
	out := boundedBuf(make([]byte, headerLen, len(plain)-1))
	fw := deflaters.Get().(*flate.Writer)
	fw.Reset(&out)
	_, err := fw.Write(plain[headerLen:])
	if err == nil {
		err = fw.Close()
	}
	fw.Reset(nil)
	deflaters.Put(fw)
	return out, err == nil
}

// boundedBuf is an append-only sink that refuses to grow past its
// capacity.
type boundedBuf []byte

var errNoGain = errors.New("ckpt: compression does not shrink the payload")

func (b *boundedBuf) Write(p []byte) (int, error) {
	if len(*b)+len(p) > cap(*b) {
		return 0, errNoGain
	}
	*b = append(*b, p...)
	return len(p), nil
}

// DecodeBytes decodes a checkpoint blob in place, verifying magic,
// version, length, CRC, the deflate stream, the architecture and the
// image. Bytes past the announced payload are refused.
func DecodeBytes(b []byte) (Meta, *cvm.Image, error) {
	if len(b) < headerLen {
		return Meta{}, nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return Meta{}, nil, ErrBadMagic
	}
	if version := binary.BigEndian.Uint32(b[offVersion:]); version != Version {
		return Meta{}, nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, version, Version)
	}
	n := binary.BigEndian.Uint32(b[offLen:])
	if n > maxPayloadBytes {
		return Meta{}, nil, fmt.Errorf("%w: absurd payload length %d", ErrCorrupt, n)
	}
	switch have := len(b) - headerLen; {
	case have < int(n):
		return Meta{}, nil, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, have, n)
	case have > int(n):
		return Meta{}, nil, fmt.Errorf("%w: %d bytes past the payload", ErrCorrupt, have-int(n))
	}
	if checksum(b) != binary.BigEndian.Uint32(b[offCRC:]) {
		return Meta{}, nil, ErrCorrupt
	}
	var meta Meta
	var img cvm.Image
	payload := b[headerLen:]
	if binary.BigEndian.Uint32(b[offFlags:])&flagDeflate != 0 {
		in := inflaters.Get().(*inflater)
		err := in.decode(payload, &meta, &img)
		inflaters.Put(in)
		if err != nil {
			return Meta{}, nil, err
		}
	} else {
		r := bytes.NewReader(payload)
		if err := decodeGob(r, &meta, &img); err != nil {
			return Meta{}, nil, err
		}
		if r.Len() != 0 {
			return Meta{}, nil, fmt.Errorf("%w: %d payload bytes past the image", ErrCorrupt, r.Len())
		}
	}
	if meta.Arch != ArchCVM64 {
		return Meta{}, nil, fmt.Errorf("%w: checkpoint is %q, this pool runs %q",
			ErrArchMismatch, meta.Arch, ArchCVM64)
	}
	if err := img.Validate(); err != nil {
		return Meta{}, nil, fmt.Errorf("ckpt: decoded image invalid: %w", err)
	}
	return meta, &img, nil
}

func decodeGob(r io.Reader, meta *Meta, img *cvm.Image) error {
	dec := gob.NewDecoder(r)
	if err := dec.Decode(meta); err != nil {
		return fmt.Errorf("ckpt: decode meta: %w", err)
	}
	if err := dec.Decode(img); err != nil {
		return fmt.Errorf("ckpt: decode image: %w", err)
	}
	return nil
}

// inflater is the fixed-size state of one streaming decode: gob reads
// straight out of the inflater, so no inflated copy of the payload is
// ever built.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
	br  *bufio.Reader // gob needs an io.ByteReader; flate's reader is not one
}

var inflaters = sync.Pool{New: func() any {
	in := &inflater{}
	in.fr = flate.NewReader(&in.src)
	in.br = bufio.NewReader(in.fr)
	return in
}}

func (in *inflater) decode(payload []byte, meta *Meta, img *cvm.Image) error {
	in.src.Reset(payload)
	defer in.src.Reset(nil)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	in.br.Reset(in.fr)
	if err := decodeGob(in.br, meta, img); err != nil {
		return err
	}
	// The deflate stream must end exactly where the image does.
	if _, err := in.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: inflate: stream does not end after the image (%v)", ErrCorrupt, err)
	}
	return nil
}
