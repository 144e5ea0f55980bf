package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"condor/internal/codec"
	"condor/internal/cvm"
)

// Magic identifies a Condor checkpoint file.
const Magic = "CNDRCKPT"

// Version is the checkpoint format version, the only one read. Version 1
// had no flags word; 2 added it (compression) over a gob body; 3 replaced
// gob with the hand-written body below and added the body-length word.
const Version = 3

// ArchCVM64 is the architecture tag for the 64-bit word VM. A checkpoint
// written on one architecture can only be restored on the same one — the
// paper's §5.4 notes that a job started on a VAX could not move to a SUN.
const ArchCVM64 = "cvm64"

// Format-level errors, matchable with errors.Is.
var (
	ErrBadMagic     = errors.New("ckpt: bad magic (not a checkpoint file)")
	ErrBadVersion   = errors.New("ckpt: unsupported format version")
	ErrCorrupt      = errors.New("ckpt: corrupt checkpoint")
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

// The header: magic, then five big-endian words — version, flags,
// payload length, body length (the inflated payload; equal to the payload
// length when the blob is plain) and a CRC-32 over the flags, both
// lengths and the payload.
const (
	offVersion = len(Magic)
	offFlags   = offVersion + 4
	offLen     = offFlags + 4
	offBodyLen = offLen + 4
	offCRC     = offBodyLen + 4
	headerLen  = offCRC + 4
)

// flag bits in the header's flags word.
const flagDeflate = 1 << 0

// maxPayloadBytes bounds a checkpoint's payload and body (matches the
// wire frame cap) so a corrupt length field cannot trigger a huge
// allocation.
const maxPayloadBytes = 64 << 20

// maxInflateRatio is the most deflate can expand: 258 bytes from a 1-bit
// length code and a 1-bit distance code. A deflated blob announcing a
// larger body is refused before anything is allocated for it.
const maxInflateRatio = 1032

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

// EncodeBytesWith encodes a checkpoint with one allocation for the plain
// blob: a sizing walk over the body, then the body written behind room
// reserved for the header. With Compress a pooled deflate writer packs
// that body into a second buffer, grown as output arrives and kept only
// when it is smaller; a body that has not shrunk by its first 256 KiB is
// kept plain without deflating the rest. The returned slice is the blob
// itself.
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
	size := bodyWriter{sizing: true}
	size.body(&meta, img)
	if size.n > maxPayloadBytes {
		return nil, fmt.Errorf("ckpt: %d-byte body exceeds the %d-byte limit", size.n, maxPayloadBytes)
	}
	w := bodyWriter{buf: make([]byte, headerLen, headerLen+size.n)}
	w.body(&meta, img)
	blob := w.buf
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
	binary.BigEndian.PutUint32(blob[offBodyLen:], uint32(size.n))
	binary.BigEndian.PutUint32(blob[offCRC:], checksum(blob))
	return blob, nil
}

// checksum is the header's CRC. It covers the flags word, both lengths
// and the payload, so a corrupted flag or length cannot silently change
// interpretation.
func checksum(blob []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, blob[offFlags:offCRC])
	return crc32.Update(crc, crc32.IEEETable, blob[headerLen:])
}

// The body is every field in declaration order: Meta's, then the Program
// section (Name, Text as a count then Op, A, B, C per instruction, Data,
// BssLen, Entry), then Image's (Mem, Stack, Regs, PC, SP, RNG, Steps,
// SysCnt, Status, Exit, Files as a count then FD, Name, Flags, Offset per
// file, NextFD, StackCap). A slice is its count then its elements, a
// string its length then its bytes, Regs its 16 words with no count.
// Every value is in internal/codec's encoding, gob's number encoding, so
// every value is as long as it was in Version 2.

// bodyWriter walks the body. The encoder runs it twice over one image: a
// sizing pass that only counts bytes, then a writing pass into a buffer
// of exactly that size.
type bodyWriter struct {
	sizing bool
	n      int    // sizing: body bytes so far
	buf    []byte // writing: room for the header, then the body so far
}

func (w *bodyWriter) body(meta *Meta, img *cvm.Image) {
	w.putString(meta.JobID)
	w.putString(meta.Owner)
	w.putString(meta.ProgramName)
	w.putString(meta.TextChecksum)
	w.putString(meta.Arch)
	w.putUint(meta.Sequence)
	w.putUint(meta.CPUSteps)
	w.putInt(meta.SubmittedAtUnixMilli)
	w.putInt(int64(meta.Priority))
	w.putString(meta.TraceID)

	w.program(img.Program)

	w.putInts(img.Mem)
	w.putInts(img.Stack)
	for _, r := range img.Regs {
		w.putInt(r)
	}
	w.putInt(img.PC)
	w.putInt(img.SP)
	w.putUint(img.RNG)
	w.putUint(img.Steps)
	w.putUint(img.SysCnt)
	w.putInt(int64(img.Status))
	w.putInt(img.Exit)
	w.putUint(uint64(len(img.Files)))
	for _, f := range img.Files {
		w.putInt(f.FD)
		w.putString(f.Name)
		w.putInt(f.Flags)
		w.putInt(f.Offset)
	}
	w.putInt(img.NextFD)
	w.putInt(int64(img.StackCap))
}

// program writes the Program section.
func (w *bodyWriter) program(p *cvm.Program) {
	w.putString(p.Name)
	w.putUint(uint64(len(p.Text)))
	for _, in := range p.Text {
		w.putUint(uint64(in.Op))
		w.putInt(in.A)
		w.putInt(in.B)
		w.putInt(in.C)
	}
	w.putInts(p.Data)
	w.putInt(int64(p.BssLen))
	w.putInt(int64(p.Entry))
}

// AppendProgram appends p's Program section, the layout a checkpoint body
// carries it in; ReadProgram reads it back. A submitted program blob is
// this section alone.
func AppendProgram(b []byte, p *cvm.Program) []byte {
	w := bodyWriter{buf: b}
	w.program(p)
	return w.buf
}

func (w *bodyWriter) putUint(x uint64) {
	if w.sizing {
		w.n += codec.UintLen(x)
		return
	}
	w.buf = codec.AppendUint(w.buf, x)
}

func (w *bodyWriter) putInt(x int64) { w.putUint(codec.Zigzag(x)) }

func (w *bodyWriter) putString(s string) {
	if w.sizing {
		w.n += codec.UintLen(uint64(len(s))) + len(s)
		return
	}
	w.buf = codec.AppendString(w.buf, s)
}

// putInts is putInt over a word slice, one loop per pass: memory is most
// of a body.
func (w *bodyWriter) putInts(v []int64) {
	if w.sizing {
		w.n += codec.IntsLen(v)
		return
	}
	w.buf = codec.AppendInts(w.buf, v)
}

// deflaters pools BestSpeed writers: a fresh one costs ≈ 1.2 MB and 16
// allocations before it compresses a byte, and a Reset one writes the
// same stream.
var deflaters = sync.Pool{New: func() any {
	fw, _ := flate.NewWriter(nil, flate.BestSpeed) // fails only for a bad level
	return fw
}}

// Deflate is fed in deflateChunk pieces. Once deflateProbe bytes have
// gone in, an output not at least 1/16 smaller than the input so far
// abandons the attempt: an image of random words never shrinks, and
// deflating all of it to find out costs more than the rest of an encode.
// BestSpeed emits a block per 64 KiB of input, so the output so far
// trails the input by no more than a few bytes per chunk.
const (
	deflateChunk = 128 << 10
	deflateProbe = 256 << 10
)

// deflate compresses plain's payload behind a fresh header. It reports
// false, and stops early, once the output would be no smaller than plain
// or, past the probe, is not shrinking. Chunking does not change the
// stream: BestSpeed encodes whole 64 KiB blocks whatever the write sizes,
// so a deflate that runs to the end writes what one Write would.
func deflate(plain []byte) ([]byte, bool) {
	// Room for the probe's output even when it does not shrink (a stored
	// block adds 5 bytes per 64 KiB), so an abandoned attempt allocates
	// once and never copies.
	out := boundedBuf{b: make([]byte, headerLen, min(len(plain)-1, headerLen+deflateProbe+deflateProbe/64)), max: len(plain) - 1}
	fw := deflaters.Get().(*flate.Writer)
	fw.Reset(&out)
	var err error
	for in := plain[headerLen:]; len(in) > 0 && err == nil; {
		n := min(len(in), deflateChunk)
		_, err = fw.Write(in[:n])
		in = in[n:]
		if fed := len(plain) - headerLen - len(in); fed >= deflateProbe && len(out.b)-headerLen > fed-fed/16 {
			err = errNoGain
		}
	}
	if err == nil {
		err = fw.Close()
	}
	fw.Reset(nil)
	deflaters.Put(fw)
	return out.b, err == nil
}

// boundedBuf is an append-only sink that refuses to grow past max bytes.
// It grows as output arrives, so an abandoned attempt costs what it wrote.
type boundedBuf struct {
	b   []byte
	max int
}

var errNoGain = errors.New("ckpt: compression does not shrink the payload")

func (b *boundedBuf) Write(p []byte) (int, error) {
	if len(b.b)+len(p) > b.max {
		return 0, errNoGain
	}
	b.b = append(b.b, p...)
	return len(p), nil
}

// DecodeBytes decodes a checkpoint blob, verifying magic, version,
// lengths, CRC, the deflate stream, the body's encoding, the architecture
// and the image. Bytes past the announced payload, or past the image in
// the body, are refused. The result shares no memory with b.
func DecodeBytes(b []byte) (Meta, *cvm.Image, error) {
	body, err := openBody(b)
	if err != nil {
		return Meta{}, nil, err
	}
	meta, img, err := decodeBody(body)
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.Arch != ArchCVM64 {
		return Meta{}, nil, fmt.Errorf("%w: checkpoint is %q, this pool runs %q",
			ErrArchMismatch, meta.Arch, ArchCVM64)
	}
	if err := img.Validate(); err != nil {
		return Meta{}, nil, fmt.Errorf("ckpt: decoded image invalid: %w", err)
	}
	return meta, img, nil
}

// openBody checks a blob's header and CRC and returns its body: the
// payload itself when plain, a fresh inflated copy when deflated.
func openBody(b []byte) ([]byte, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if version := binary.BigEndian.Uint32(b[offVersion:]); version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, version, Version)
	}
	n := binary.BigEndian.Uint32(b[offLen:])
	bodyLen := binary.BigEndian.Uint32(b[offBodyLen:])
	if n > maxPayloadBytes || bodyLen > maxPayloadBytes {
		return nil, fmt.Errorf("%w: absurd payload/body length %d/%d", ErrCorrupt, n, bodyLen)
	}
	switch have := len(b) - headerLen; {
	case have < int(n):
		return nil, fmt.Errorf("%w: payload %d of %d bytes", ErrTruncated, have, n)
	case have > int(n):
		return nil, fmt.Errorf("%w: %d bytes past the payload", ErrCorrupt, have-int(n))
	}
	if checksum(b) != binary.BigEndian.Uint32(b[offCRC:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	payload := b[headerLen:]
	if binary.BigEndian.Uint32(b[offFlags:])&flagDeflate == 0 {
		if bodyLen != n {
			return nil, fmt.Errorf("%w: plain body length %d, payload %d", ErrCorrupt, bodyLen, n)
		}
		return payload, nil
	}
	if uint64(bodyLen) > maxInflateRatio*uint64(n) {
		return nil, fmt.Errorf("%w: %d-byte payload cannot inflate to %d bytes", ErrCorrupt, n, bodyLen)
	}
	return inflate(payload, int(bodyLen))
}

// inflater is the fixed-size state of one inflate. The body it fills is
// allocated per decode at its announced length; payload-sized buffers are
// never pooled.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser // a flate.Resetter
	one [1]byte       // the probe for the end of the stream
}

var inflaters = sync.Pool{New: func() any {
	in := &inflater{}
	in.fr = flate.NewReader(&in.src)
	return in
}}

// inflate decompresses payload into a body of exactly bodyLen bytes. The
// deflate stream must end there, and the payload with it.
func inflate(payload []byte, bodyLen int) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(payload)
	defer in.src.Reset(nil)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(in.fr, body); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if n, err := in.fr.Read(in.one[:]); n != 0 || err != io.EOF || in.src.Len() != 0 {
		return nil, fmt.Errorf("%w: inflate: stream does not end with the %d-byte body", ErrCorrupt, bodyLen)
	}
	return body, nil
}

func decodeBody(body []byte) (Meta, *cvm.Image, error) {
	r := codec.NewReader(body)
	var meta Meta
	meta.JobID = r.ReadString()
	meta.Owner = r.ReadString()
	meta.ProgramName = r.ReadString()
	meta.TextChecksum = r.ReadString()
	meta.Arch = r.ReadString()
	meta.Sequence = r.ReadUint()
	meta.CPUSteps = r.ReadUint()
	meta.SubmittedAtUnixMilli = r.ReadInt()
	meta.Priority = int(r.ReadInt())
	meta.TraceID = r.ReadString()

	img := &cvm.Image{Program: ReadProgram(&r)}
	img.Mem = r.ReadInts()
	img.Stack = r.ReadInts()
	for i := range img.Regs {
		img.Regs[i] = r.ReadInt()
	}
	img.PC = r.ReadInt()
	img.SP = r.ReadInt()
	img.RNG = r.ReadUint()
	img.Steps = r.ReadUint()
	img.SysCnt = r.ReadUint()
	img.Status = cvm.Status(r.ReadInt())
	img.Exit = r.ReadInt()
	if n := r.ReadCount(4); n > 0 { // a file entry is at least 4 bytes
		img.Files = make([]cvm.OpenFile, n)
		for i := range img.Files {
			f := &img.Files[i]
			f.FD = r.ReadInt()
			f.Name = r.ReadString()
			f.Flags = r.ReadInt()
			f.Offset = r.ReadInt()
		}
	}
	img.NextFD = r.ReadInt()
	img.StackCap = int(r.ReadInt())
	if err := r.End(); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
	}
	return meta, img, nil
}

// ReadProgram reads the Program section AppendProgram writes. A malformed
// section fails r.
func ReadProgram(r *codec.Reader) *cvm.Program {
	p := &cvm.Program{Name: r.ReadString()}
	if n := r.ReadCount(4); n > 0 { // an instruction is at least 4 bytes
		p.Text = make([]cvm.Instr, n)
		for i := range p.Text {
			op := r.ReadUint()
			if op > 0xff {
				r.Fail("opcode out of range")
			}
			in := &p.Text[i]
			in.Op = cvm.Opcode(op)
			in.A = r.ReadInt()
			in.B = r.ReadInt()
			in.C = r.ReadInt()
		}
	}
	p.Data = r.ReadInts()
	p.BssLen = int(r.ReadInt())
	p.Entry = int(r.ReadInt())
	return p
}
