// Package ckpt implements Condor's checkpoint files and the per-machine
// checkpoint store.
//
// A checkpoint file is a self-describing container: a fixed header
// carrying a magic number, format version, flags, the payload and body
// lengths and a CRC, followed by the body — Meta (job identity,
// architecture tag) and then the cvm.Image, field by field in
// declaration order, in internal/codec's encoding (gob's variable-length
// number encoding; format Version 3; see format.go and
// docs/ASSEMBLY.md). The body is hand-written, not reflected: there are
// no type descriptors to send or compile, so a small checkpoint costs
// microseconds, and each image has exactly one encoding. The paper's §2.3 dictates the contents (text,
// data, bss, stack, registers, open files); the Image type already
// captures those, so this package's job is durability and integrity: a
// truncated or bit-flipped checkpoint must be detected, never silently
// restored.
//
// Compression is asked for per encode (Options.Compress) and kept only
// when the payload shrinks. A body that has not shrunk by 1/16 after its
// first 256 KiB is left plain without deflating the rest, so an
// incompressible image costs a short probe. The layout does not depend on
// it: the blob is plain, or the same deflate stream as ever.
//
// The encoded blob is the unit a home station keeps and ships. A Store
// decodes a blob once, on PutBlob, to verify it and charge its size, and
// keeps the bytes; a placement sends GetBlob's bytes as they are, so a
// checkpoint generation is encoded exactly once, where it was taken.
//
// The Store addresses two §4 operational problems:
//
//   - Full disks: checkpoint files of remotely executing jobs are kept on
//     the submitting machine, so a user's local disk bounds how many jobs
//     they can keep in the system. The Store enforces a capacity and
//     returns ErrDiskFull, which the local scheduler surfaces when
//     placement would exceed it.
//   - Shared text segments: users submit many copies of one program with
//     different parameters, so the Store charges each distinct text
//     segment (keyed by checksum) once, reference-counted, instead of
//     once per checkpoint. The bytes still travel inside every blob.
package ckpt
