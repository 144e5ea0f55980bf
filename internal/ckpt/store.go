package ckpt

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"condor/internal/cvm"
)

// Store-level errors.
var (
	// ErrNotFound is returned when no checkpoint exists for the job.
	ErrNotFound = errors.New("ckpt: checkpoint not found")
	// ErrDiskFull is returned when storing a checkpoint would exceed the
	// store's capacity — the §4 "users let their disk become full"
	// condition that blocks further placements.
	ErrDiskFull = errors.New("ckpt: disk full")
	// ErrWrongJob is returned by PutBlob for a blob whose metadata names
	// a job other than the one it is stored under.
	ErrWrongJob = errors.New("ckpt: checkpoint belongs to another job")
)

var errEmptyJobID = errors.New("ckpt: empty job id")

// Usage summarizes a store's footprint.
type Usage struct {
	// Bytes is the total space charged, including shared text.
	Bytes int64 `json:"bytes"`
	// Checkpoints is the number of stored checkpoints.
	Checkpoints int `json:"checkpoints"`
	// TextBytes is the portion of Bytes occupied by text segments.
	TextBytes int64 `json:"textBytes"`
	// SharedTexts is the number of distinct text segments stored.
	SharedTexts int `json:"sharedTexts"`
}

// Store is a per-machine checkpoint repository. It keeps each job's
// latest checkpoint as the encoded blob it verified on the way in, so a
// placement ships stored bytes and nothing encodes a generation twice.
// Implementations must be safe for concurrent use.
type Store interface {
	// PutBlob verifies an encoded checkpoint with DecodeBytes, refuses it
	// (ErrWrongJob) unless its metadata names jobID, and stores the bytes
	// verbatim, replacing any previous checkpoint for the job. The store
	// keeps blob: the caller must not modify it afterwards. A refused
	// blob leaves the previous checkpoint and Usage unchanged.
	PutBlob(jobID string, blob []byte) (Meta, error)
	// GetBlob returns the job's stored blob. The bytes are shared and
	// must not be modified.
	GetBlob(jobID string) (Meta, []byte, error)
	// Put encodes the checkpoint (compressed) and stores it with PutBlob.
	Put(meta Meta, img *cvm.Image) error
	// Get decodes the job's stored checkpoint into a fresh image.
	Get(jobID string) (Meta, *cvm.Image, error)
	// Delete removes the job's checkpoint. Deleting a missing checkpoint
	// is not an error.
	Delete(jobID string) error
	// Has reports whether a checkpoint exists for the job.
	Has(jobID string) bool
	// List returns metadata for all stored checkpoints, sorted by job id.
	List() []Meta
	// Usage returns the store's current footprint.
	Usage() Usage
	// Capacity returns the store's byte capacity (0 = unlimited).
	Capacity() int64
}

// backend is where a store's blobs live, one per job. write and remove
// run under the store's mutex; read runs outside it, so a backend must
// let a read race a write. read reports ErrNotFound for a missing blob.
type backend interface {
	write(jobID string, blob []byte) error
	read(jobID string) ([]byte, error)
	remove(jobID string) error
}

const instrBytes = 32 // one Instr is 4 words

// entry is the index's record of one stored checkpoint.
type entry struct {
	meta      Meta
	bytes     int64  // charged to this checkpoint alone (shared text excluded)
	text      string // shared-text key (the program's text checksum); "" unshared
	textBytes int64  // size of the shared text under key
}

// textEntry is one reference-counted shared text segment.
type textEntry struct {
	bytes int64
	refs  int
}

// store is the one implementation of Store. It decides everything a
// checkpoint store decides — verification, the job check, capacity,
// usage, shared-text refcounts and the index of stored checkpoints — and
// keeps only the bytes in its backend. Has, List, Usage, Capacity and
// PutBlob's capacity check read the index alone.
//
// A checkpoint is charged its decoded image size. With shared text on,
// its text segment is charged once per TextChecksum, reference-counted,
// however many checkpoints carry it (§4); the bytes still travel inside
// every blob.
type store struct {
	mu        sync.Mutex
	blobs     backend
	capacity  int64
	share     bool
	index     map[string]entry
	texts     map[string]*textEntry
	bytes     int64 // sum of the index's charges
	textBytes int64 // sum of the texts' sizes
}

func newStore(blobs backend, capacity int64, shareText bool) *store {
	return &store{
		blobs:    blobs,
		capacity: capacity,
		share:    shareText,
		index:    make(map[string]entry),
		texts:    make(map[string]*textEntry),
	}
}

// NewMemStore returns an in-memory store. capacity is the byte budget (0
// = unlimited); shareText enables the §4 shared-text optimization: a
// text segment is charged once per content hash, however many stored
// checkpoints carry it.
func NewMemStore(capacity int64, shareText bool) Store {
	return newStore(&memBlobs{m: make(map[string][]byte)}, capacity, shareText)
}

// verify is PutBlob's gate: the full decode, then the job check.
func verify(jobID string, blob []byte) (Meta, *cvm.Image, error) {
	if jobID == "" {
		return Meta{}, nil, errEmptyJobID
	}
	meta, img, err := DecodeBytes(blob)
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.JobID != jobID {
		return Meta{}, nil, fmt.Errorf("%w: blob names %q, stored as %q", ErrWrongJob, meta.JobID, jobID)
	}
	return meta, img, nil
}

// charge is the index entry for a decoded checkpoint: its image size,
// less its text when text is shared.
func (s *store) charge(meta Meta, img *cvm.Image) entry {
	e := entry{meta: meta, bytes: img.SizeBytes()}
	if s.share {
		e.textBytes = int64(len(img.Program.Text)) * instrBytes
		e.bytes -= e.textBytes
		e.text = meta.TextChecksum
		if e.text == "" {
			e.text = img.Program.TextChecksum()
		}
	}
	return e
}

// PutBlob implements Store. The index changes only once the backend has
// the new blob, so a failed write leaves the old checkpoint and entry.
func (s *store) PutBlob(jobID string, blob []byte) (Meta, error) {
	meta, img, err := verify(jobID, blob)
	if err != nil {
		return Meta{}, err
	}
	e := s.charge(meta, img)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity > 0 {
		need := s.bytes + s.textBytes - s.index[jobID].bytes + e.bytes
		if _, ok := s.texts[e.text]; s.share && !ok {
			need += e.textBytes
		}
		if need > s.capacity {
			return Meta{}, fmt.Errorf("%w: need %d bytes, capacity %d", ErrDiskFull, need, s.capacity)
		}
	}
	if err := s.blobs.write(jobID, blob); err != nil {
		return Meta{}, err
	}
	s.dropLocked(jobID)
	s.addLocked(jobID, e)
	return meta, nil
}

func (s *store) addLocked(jobID string, e entry) {
	s.index[jobID] = e
	s.bytes += e.bytes
	if !s.share {
		return
	}
	t, ok := s.texts[e.text]
	if !ok {
		t = &textEntry{bytes: e.textBytes}
		s.texts[e.text] = t
		s.textBytes += t.bytes
	}
	t.refs++
}

func (s *store) dropLocked(jobID string) {
	e, ok := s.index[jobID]
	if !ok {
		return
	}
	delete(s.index, jobID)
	s.bytes -= e.bytes
	t, ok := s.texts[e.text]
	if !ok {
		return
	}
	t.refs--
	if t.refs == 0 {
		delete(s.texts, e.text)
		s.textBytes -= t.bytes
	}
}

// GetBlob implements Store.
func (s *store) GetBlob(jobID string) (Meta, []byte, error) {
	s.mu.Lock()
	e, ok := s.index[jobID]
	s.mu.Unlock()
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: job %q", ErrNotFound, jobID)
	}
	blob, err := s.blobs.read(jobID)
	if err != nil {
		return Meta{}, nil, err
	}
	return e.meta, blob, nil
}

// Put implements Store: encode with the metadata defaults, then PutBlob.
func (s *store) Put(meta Meta, img *cvm.Image) error {
	if meta.TextChecksum == "" && img != nil && img.Program != nil {
		meta.TextChecksum = img.Program.TextChecksum()
	}
	blob, err := EncodeBytesWith(meta, img, Options{Compress: true})
	if err != nil {
		return err
	}
	_, err = s.PutBlob(meta.JobID, blob)
	return err
}

// Get implements Store.
func (s *store) Get(jobID string) (Meta, *cvm.Image, error) {
	_, blob, err := s.GetBlob(jobID)
	if err != nil {
		return Meta{}, nil, err
	}
	return DecodeBytes(blob)
}

// Delete implements Store. A failed remove keeps the entry.
func (s *store) Delete(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[jobID]; !ok {
		return nil
	}
	if err := s.blobs.remove(jobID); err != nil {
		return err
	}
	s.dropLocked(jobID)
	return nil
}

// Has implements Store.
func (s *store) Has(jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[jobID]
	return ok
}

// List implements Store.
func (s *store) List() []Meta {
	s.mu.Lock()
	out := make([]Meta, 0, len(s.index))
	for _, e := range s.index {
		out = append(out, e.meta)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Usage implements Store.
func (s *store) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Usage{
		Bytes:       s.bytes + s.textBytes,
		Checkpoints: len(s.index),
		TextBytes:   s.textBytes,
		SharedTexts: len(s.texts),
	}
}

// Capacity implements Store.
func (s *store) Capacity() int64 { return s.capacity }

// memBlobs keeps each blob in memory, as PutBlob was handed it. Its read
// does not decode: PutBlob verified the bytes and nothing can rot them.
type memBlobs struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *memBlobs) write(jobID string, blob []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[jobID] = blob
	return nil
}

func (b *memBlobs) read(jobID string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blob, ok := b.m[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, jobID)
	}
	return blob, nil
}

func (b *memBlobs) remove(jobID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, jobID)
	return nil
}
