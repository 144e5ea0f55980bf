package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"condor/internal/cvm"
	"condor/internal/telemetry"
)

// DirStore is a durable Store keeping one checkpoint file per job in a
// directory: the blob exactly as PutBlob verified it (and as placements
// ship it). The local scheduler uses it so a machine reboot does not
// lose queued work — the paper's guarantee that "the job will eventually
// complete" survives submitter restarts too.
type DirStore struct {
	mu       sync.Mutex
	dir      string
	capacity int64
}

var _ Store = (*DirStore)(nil)

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string, capacity int64) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create store dir: %w", err)
	}
	return &DirStore{dir: dir, capacity: capacity}, nil
}

// Dir returns the backing directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) path(jobID string) string {
	// Job ids may contain separators like "machine/seq"; flatten them.
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_", ":", "_").Replace(jobID)
	return filepath.Join(s.dir, safe+".ckpt")
}

// PutBlob implements Store. The write is atomic: a temp file is renamed
// into place, so a crash mid-write never leaves a truncated checkpoint
// under the job's name.
func (s *DirStore) PutBlob(jobID string, blob []byte) (Meta, error) {
	meta, _, err := verify(jobID, blob)
	if err != nil {
		return Meta{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity > 0 {
		used, err := s.bytesLocked()
		if err != nil {
			return Meta{}, err
		}
		if fi, err := os.Stat(s.path(jobID)); err == nil {
			used -= fi.Size()
		}
		if need := used + int64(len(blob)); need > s.capacity {
			return Meta{}, fmt.Errorf("%w: need %d bytes, capacity %d", ErrDiskFull, need, s.capacity)
		}
	}
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return Meta{}, fmt.Errorf("ckpt: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return Meta{}, fmt.Errorf("ckpt: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return Meta{}, fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmpName, s.path(jobID)); err != nil {
		os.Remove(tmpName)
		return Meta{}, fmt.Errorf("ckpt: rename: %w", err)
	}
	return meta, nil
}

// GetBlob implements Store. The file is decoded in full before its bytes
// are handed out: it may have rotted on disk since PutBlob verified it.
func (s *DirStore) GetBlob(jobID string) (Meta, []byte, error) {
	blob, err := s.read(jobID)
	if err != nil {
		return Meta{}, nil, err
	}
	meta, _, err := DecodeBytes(blob)
	if err != nil {
		return Meta{}, nil, err
	}
	return meta, blob, nil
}

// Put implements Store.
func (s *DirStore) Put(meta Meta, img *cvm.Image) error { return put(s, meta, img) }

// Get implements Store.
func (s *DirStore) Get(jobID string) (Meta, *cvm.Image, error) {
	blob, err := s.read(jobID)
	if err != nil {
		return Meta{}, nil, err
	}
	return DecodeBytes(blob)
}

func (s *DirStore) read(jobID string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := os.ReadFile(s.path(jobID))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: job %q", ErrNotFound, jobID)
		}
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return blob, nil
}

// Delete implements Store.
func (s *DirStore) Delete(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(jobID))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("ckpt: delete: %w", err)
	}
	return nil
}

// Has implements Store.
func (s *DirStore) Has(jobID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := os.Stat(s.path(jobID))
	return err == nil
}

var mSkippedFiles = telemetry.NewCounter("condor_ckpt_store_skipped_files_total",
	"Checkpoint files a durable store's List skipped as unreadable, corrupt or of another format version; they stay on disk.")

// List implements Store. Unreadable or corrupt files, and files of
// another format version, are skipped, counted and left in place: a
// damaged checkpoint must not block recovery of the healthy ones.
func (s *DirStore) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []Meta
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			mSkippedFiles.Inc()
			continue
		}
		meta, _, err := DecodeBytes(blob)
		if err != nil {
			mSkippedFiles.Inc()
			continue
		}
		out = append(out, meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Usage implements Store.
func (s *DirStore) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	bytes, _ := s.bytesLocked()
	n := 0
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".ckpt") {
				n++
			}
		}
	}
	return Usage{Bytes: bytes, Checkpoints: n}
}

func (s *DirStore) bytesLocked() (int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("ckpt: read dir: %w", err)
	}
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total, nil
}

// Capacity implements Store.
func (s *DirStore) Capacity() int64 { return s.capacity }
