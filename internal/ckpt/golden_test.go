package ckpt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"condor/internal/cvm"
)

// goldenCase is one committed blob in testdata/ and the inputs that
// produced it. The blobs pin Version 3 byte for byte. Each file is
// exactly EncodeBytesWith(c.meta, c.img, c.opts) for its case below; a
// deliberate format change regenerates them all with a one-off test in
// this package:
//
//	for _, c := range goldenCases(t) {
//		blob, _ := EncodeBytesWith(c.meta, c.img, c.opts)
//		os.WriteFile(filepath.Join("testdata", c.file), blob, 0o644)
//	}
//
// testdata/v2-small-plain.ckpt is small-plain's inputs as Version 2 (gob)
// wrote them, kept so that a spool from before Version 3 is refused.
type goldenCase struct {
	file   string
	meta   Meta
	img    *cvm.Image
	opts   Options
	packed bool // the blob's deflate flag
}

func goldenCases(t testing.TB) []goldenCase {
	t.Helper()
	spin := cvm.SpinProgram(1000)
	r := rand.New(rand.NewSource(21))

	// Incompressible: compression is requested but the plain body is kept.
	noise := makeImage(t, cvm.MustAssemble("noise", ".bss\nbuf: .space 512\n.text\nstart:\n HALT 0\n"), 0)
	for i := range noise.Mem {
		noise.Mem[i] = r.Int63()
	}
	// 1 MiB of memory: literals, sparse large words and long matches, so
	// deflate builds real Huffman tables and spans its window.
	mib := makeImage(t, cvm.MustAssemble("mib", ".bss\nbuf: .space 131072\n.text\nstart:\n HALT 0\n"), 0)
	for i := range mib.Mem {
		switch {
		case i < 4096:
			mib.Mem[i] = r.Int63n(40)
		case i%4096 == 0:
			mib.Mem[i] = r.Int63()
		default:
			mib.Mem[i] = int64(i % 61)
		}
	}
	full := Meta{
		JobID: "ws1/7", Owner: "alice", ProgramName: "spin", Sequence: 3, CPUSteps: 5,
		SubmittedAtUnixMilli: 567_993_600_000, Priority: 2,
		TraceID: "0af7651916cd43dd8448eb211c80319c",
	}
	return []goldenCase{
		{file: "small-plain.ckpt", meta: full, img: makeImage(t, cvm.SpinProgram(10), 5)},
		{file: "small-deflate.ckpt", meta: Meta{JobID: "ws1/8", Owner: "bob", ProgramName: spin.Name, TextChecksum: spin.TextChecksum()},
			img: makeImage(t, spin, 0), opts: Options{Compress: true}, packed: true},
		{file: "noise-kept-plain.ckpt", meta: Meta{JobID: "ws2/1"}, img: noise, opts: Options{Compress: true}},
		{file: "mib-plain.ckpt", meta: Meta{JobID: "ws2/2"}, img: mib},
		{file: "mib-deflate.ckpt", meta: Meta{JobID: "ws2/3", Sequence: 9}, img: mib, opts: Options{Compress: true}, packed: true},
	}
}

// TestGoldenBlobs pins "format unchanged": every committed blob decodes
// to its inputs, and encoding the inputs reproduces it byte for byte —
// twice, so the second pass runs on a Reset writer from the pool.
func TestGoldenBlobs(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if packed := binary.BigEndian.Uint32(want[offFlags:])&flagDeflate != 0; packed != c.packed {
				t.Fatalf("golden deflate flag = %v, want %v", packed, c.packed)
			}
			meta, img, err := DecodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			wantMeta := c.meta
			wantMeta.Arch = ArchCVM64
			if meta != wantMeta {
				t.Fatalf("meta = %+v, want %+v", meta, wantMeta)
			}
			if !reflect.DeepEqual(img.Mem, c.img.Mem) || img.PC != c.img.PC || img.Steps != c.img.Steps {
				t.Fatal("decoded image differs from the golden input")
			}
			for pass := 0; pass < 2; pass++ {
				got, err := EncodeBytesWith(c.meta, c.img, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("pass %d: encoding differs from the golden blob (%d vs %d bytes)", pass, len(got), len(want))
				}
			}
		})
	}
}

// TestCodecConcurrentMatchesSerial shares the pooled deflate and inflate
// state among goroutines (run it under -race): every concurrent encode
// must equal the serial blob, and every decode the serial decode.
func TestCodecConcurrentMatchesSerial(t *testing.T) {
	cases := goldenCases(t)
	type serial struct {
		blob []byte
		meta Meta
		img  *cvm.Image
	}
	want := make([]serial, len(cases))
	for i, c := range cases {
		blob, err := EncodeBytesWith(c.meta, c.img, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		meta, img, err := DecodeBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serial{blob, meta, img}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range cases {
					c := cases[(i+g)%len(cases)] // goroutines interleave different shapes
					w := want[(i+g)%len(cases)]
					blob, err := EncodeBytesWith(c.meta, c.img, c.opts)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(blob, w.blob) {
						t.Errorf("%s: concurrent encode differs from serial", c.file)
						return
					}
					meta, img, err := DecodeBytes(blob)
					if err != nil {
						t.Error(err)
						return
					}
					if meta != w.meta || !reflect.DeepEqual(img, w.img) {
						t.Errorf("%s: concurrent decode differs from serial", c.file)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
