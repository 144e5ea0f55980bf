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
	// Bytes is the total space consumed, including shared text.
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

// put is every Store's Put: encode with the metadata defaults, then
// PutBlob.
func put(s Store, meta Meta, img *cvm.Image) error {
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

const instrBytes = 32 // one Instr is 4 words

func textBytes(n int) int64 { return int64(n) * instrBytes }

// textEntry is one reference-counted shared text segment.
type textEntry struct {
	bytes int64
	refs  int
}

type memCkpt struct {
	meta  Meta
	blob  []byte
	text  string // shared-text key (the program's text checksum)
	bytes int64  // space charged to this checkpoint (excludes shared text)
}

// MemStore is an in-memory Store with optional shared text segments.
// Daemons use it for fast in-process pools and tests; DirStore provides
// the durable variant.
type MemStore struct {
	mu       sync.Mutex
	capacity int64
	share    bool
	ckpts    map[string]memCkpt
	texts    map[string]*textEntry
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an in-memory store. capacity is the byte budget (0
// = unlimited); shareText enables the §4 shared-text optimization: a
// text segment is charged once per content hash, however many stored
// checkpoints carry it.
func NewMemStore(capacity int64, shareText bool) *MemStore {
	return &MemStore{
		capacity: capacity,
		share:    shareText,
		ckpts:    make(map[string]memCkpt),
		texts:    make(map[string]*textEntry),
	}
}

// PutBlob implements Store. The charge is the image's size, less its
// text when text is shared.
func (s *MemStore) PutBlob(jobID string, blob []byte) (Meta, error) {
	meta, img, err := verify(jobID, blob)
	if err != nil {
		return Meta{}, err
	}
	newBytes := img.SizeBytes()
	text := textBytes(len(img.Program.Text))
	var key string
	if s.share {
		newBytes -= text
		key = meta.TextChecksum
		if key == "" {
			key = img.Program.TextChecksum()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var newTextBytes int64
	if s.share {
		if _, exists := s.texts[key]; !exists {
			newTextBytes = text
		}
	}
	old, replacing := s.ckpts[jobID]
	if s.capacity > 0 {
		projected := s.usageLocked().Bytes - old.bytes + newBytes + newTextBytes
		if projected > s.capacity {
			return Meta{}, fmt.Errorf("%w: need %d bytes, capacity %d", ErrDiskFull, projected, s.capacity)
		}
	}
	if replacing {
		s.dropTextRefLocked(old.text)
	}
	if s.share {
		entry, ok := s.texts[key]
		if !ok {
			entry = &textEntry{bytes: text}
			s.texts[key] = entry
		}
		entry.refs++
	}
	s.ckpts[jobID] = memCkpt{meta: meta, blob: blob, text: key, bytes: newBytes}
	return meta, nil
}

// GetBlob implements Store.
func (s *MemStore) GetBlob(jobID string) (Meta, []byte, error) {
	s.mu.Lock()
	ck, ok := s.ckpts[jobID]
	s.mu.Unlock()
	if !ok {
		return Meta{}, nil, fmt.Errorf("%w: job %q", ErrNotFound, jobID)
	}
	return ck.meta, ck.blob, nil
}

// Put implements Store.
func (s *MemStore) Put(meta Meta, img *cvm.Image) error { return put(s, meta, img) }

// Get implements Store.
func (s *MemStore) Get(jobID string) (Meta, *cvm.Image, error) {
	_, blob, err := s.GetBlob(jobID)
	if err != nil {
		return Meta{}, nil, err
	}
	return DecodeBytes(blob)
}

// Delete implements Store.
func (s *MemStore) Delete(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ck, ok := s.ckpts[jobID]
	if !ok {
		return nil
	}
	delete(s.ckpts, jobID)
	s.dropTextRefLocked(ck.text)
	return nil
}

func (s *MemStore) dropTextRefLocked(key string) {
	if !s.share {
		return
	}
	entry, ok := s.texts[key]
	if !ok {
		return
	}
	entry.refs--
	if entry.refs <= 0 {
		delete(s.texts, key)
	}
}

// Has implements Store.
func (s *MemStore) Has(jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.ckpts[jobID]
	return ok
}

// List implements Store.
func (s *MemStore) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.ckpts))
	for _, ck := range s.ckpts {
		out = append(out, ck.meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Usage implements Store.
func (s *MemStore) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usageLocked()
}

func (s *MemStore) usageLocked() Usage {
	u := Usage{Checkpoints: len(s.ckpts), SharedTexts: len(s.texts)}
	for _, ck := range s.ckpts {
		u.Bytes += ck.bytes
	}
	for _, t := range s.texts {
		u.TextBytes += t.bytes
	}
	u.Bytes += u.TextBytes
	return u
}

// Capacity implements Store.
func (s *MemStore) Capacity() int64 { return s.capacity }
