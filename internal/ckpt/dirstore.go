package ckpt

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"condor/internal/telemetry"
)

// tmpPrefix names a blob being written; only a rename gives it a job's
// name, so a file with this prefix was never acknowledged.
const tmpPrefix = ".ckpt-"

var mSkippedFiles = telemetry.NewCounter("condor_ckpt_store_skipped_files_total",
	"Checkpoint files a durable store skipped when it opened its directory: unreadable, corrupt, of another format version or not named for their job; they stay on disk.")

// NewDirStore opens (creating if needed) a durable store keeping one
// checkpoint file per job in dir: the blob exactly as PutBlob verified it
// (and as placements ship it). The local scheduler uses it so a machine
// reboot does not lose queued work — the paper's guarantee that "the job
// will eventually complete" survives submitter restarts too. Text is
// shared, so -disk admits the same checkpoints as NewMemStore(capacity,
// true).
//
// The store owns dir and reads it once, here: each *.ckpt file is decoded
// and charged as PutBlob would charge it. A file that does not decode, or
// is not named for the job it holds, is skipped, counted and left in
// place: a damaged checkpoint must not block recovery of the healthy
// ones. Temp files a crash left between create and rename are removed.
func NewDirStore(dir string, capacity int64) (Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create store dir: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read store dir: %w", err)
	}
	blobs := dirBlobs(dir)
	s := newStore(blobs, capacity, true)
	for _, f := range files {
		name := f.Name()
		switch {
		case f.IsDir():
		case strings.HasPrefix(name, tmpPrefix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("ckpt: remove leftover temp file: %w", err)
			}
		case strings.HasSuffix(name, ".ckpt"):
			path := filepath.Join(dir, name)
			blob, err := os.ReadFile(path)
			if err != nil {
				mSkippedFiles.Inc()
				continue
			}
			meta, img, err := DecodeBytes(blob)
			if err != nil || meta.JobID == "" || blobs.path(meta.JobID) != path {
				mSkippedFiles.Inc()
				continue
			}
			s.addLocked(meta.JobID, s.charge(meta, img))
		}
	}
	return s, nil
}

// dirBlobs keeps each blob in its own file under the directory it names.
type dirBlobs string

func (d dirBlobs) path(jobID string) string {
	// Job ids may contain separators like "machine/seq"; flatten them.
	safe := strings.NewReplacer("/", "_", string(filepath.Separator), "_", ":", "_").Replace(jobID)
	return filepath.Join(string(d), safe+".ckpt")
}

// write is atomic and durable: the blob goes to a temp file, which is
// synced and renamed into place, and then the directory is synced. A
// crash never leaves a truncated or empty checkpoint under a job's name.
// An error before the rename leaves the old file; a failed directory
// sync after it is reported with the new file in place, not yet durable.
func (d dirBlobs) write(jobID string, blob []byte) error {
	tmp, err := os.CreateTemp(string(d), tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	_, err = tmp.Write(blob)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(jobID))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: write: %w", err)
	}
	return d.sync()
}

// read decodes the file in full before handing out its bytes: it may
// have rotted on disk since PutBlob verified it.
func (d dirBlobs) read(jobID string) ([]byte, error) {
	blob, err := os.ReadFile(d.path(jobID))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, jobID)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	if _, _, err := DecodeBytes(blob); err != nil {
		return nil, err
	}
	return blob, nil
}

func (d dirBlobs) remove(jobID string) error {
	err := os.Remove(d.path(jobID))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ckpt: delete: %w", err)
	}
	return d.sync()
}

// sync makes the directory's last rename or remove durable.
func (d dirBlobs) sync() error {
	f, err := os.Open(string(d))
	if err == nil {
		err = f.Sync()
		f.Close()
	}
	if err != nil {
		return fmt.Errorf("ckpt: sync dir: %w", err)
	}
	return nil
}
