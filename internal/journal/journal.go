// Package journal keeps the coordinator's durable state: one record, the
// newest whole state, in two checksummed slot files.
//
// The paper's coordinator is deliberately thin — §2.1 argues "its
// recovery at another site is simplified" because stations hold their
// own queues — but some coordinator state is genuinely irreplaceable:
// the Up-Down schedule indexes (§2.4) are the pool's fairness memory,
// and §5.3 reservations are promises made to users. That state is a
// table of a few kilobytes, so each Append rewrites all of it.
//
// On-disk layout (inside one directory):
//
//	state.0, state.1    magic | sequence | length | CRC | record
//
// Append writes sequence N over slot N%2, the older one, truncates it
// to the new length and fsyncs it. A crash in the middle of Append
// leaves the other slot intact, so Open returns either the new record
// or the one before it. The CRC covers the sequence and length as well
// as the record, so a slot torn between its old and new contents never
// verifies.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"condor/internal/telemetry"
)

// Journal telemetry (see docs/OBSERVABILITY.md).
var (
	mAppendLatency = telemetry.NewHistogram("condor_journal_append_seconds",
		"Latency of one whole-state write, fsync included.", nil)
	mJournalErrors = telemetry.NewCounter("condor_journal_errors_total",
		"Journal state writes that failed.")
)

const (
	// magic opens every slot file.
	magic = "CNDRSTAT"
	// headerLen is the magic's 8 bytes, then uint64 sequence, uint32
	// length and uint32 CRC.
	headerLen = 24
	// maxRecordBytes bounds one record, so a hostile length field is
	// refused before anything is read.
	maxRecordBytes = 16 << 20
)

// ErrClosed is returned for operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Config is empty: the two-slot journal has nothing to tune. It stays a
// type so callers that spell journal.Config{} keep compiling.
type Config struct{}

// Stats counts journal activity since Open.
type Stats struct {
	// Appends is how many states were written since Open.
	Appends uint64
	// Bytes is the size of the newest state (0 before the first).
	Bytes int64
	// Legacy names the files a log-era build left in the directory
	// (journal.*.log, snapshot.*.snap, incarnation). They are never read
	// and never deleted.
	Legacy []string
}

// Journal holds the two slot files. It is safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	slots  [2]*os.File
	sizes  [2]int64 // each slot file's size, -1 when unknown
	seq    uint64   // sequence of the newest valid state; 0 before the first
	buf    []byte   // reused frame buffer, so Append does not allocate
	stats  Stats
	closed bool
}

// Open opens dir's slot files, creating the directory and the files if
// needed, and returns the newest record whose magic, sequence, length
// and CRC verify, or nil when there is none.
func Open(dir string, _ Config) (*Journal, []byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{}
	var newest []byte
	created := false
	for i := range j.slots {
		path := filepath.Join(dir, fmt.Sprintf("state.%d", i))
		_, statErr := os.Stat(path)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			j.closeFiles()
			return nil, nil, fmt.Errorf("journal: open slot: %w", err)
		}
		j.slots[i] = f
		created = created || os.IsNotExist(statErr)
		seq, rec, size := readSlot(f, i)
		j.sizes[i] = size
		if rec != nil && seq > j.seq {
			j.seq, newest = seq, rec
		}
	}
	if created {
		syncDir(dir)
	}
	j.stats.Bytes = int64(len(newest))
	for _, pattern := range []string{"journal.*.log", "snapshot.*.snap", "incarnation"} {
		names, _ := filepath.Glob(filepath.Join(dir, pattern))
		for _, name := range names {
			j.stats.Legacy = append(j.stats.Legacy, filepath.Base(name))
		}
	}
	return j, newest, nil
}

// readSlot returns slot i's sequence and record when they verify (nil
// otherwise), and the file's size. A length larger than the file is
// refused before anything is allocated.
func readSlot(f *os.File, i int) (seq uint64, rec []byte, size int64) {
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, 0
	}
	size = fi.Size()
	var h [headerLen]byte
	if _, err := f.ReadAt(h[:], 0); err != nil || string(h[:len(magic)]) != magic {
		return 0, nil, size
	}
	seq = binary.BigEndian.Uint64(h[len(magic):])
	length := binary.BigEndian.Uint32(h[len(magic)+8:])
	if seq%2 != uint64(i) || length > maxRecordBytes || int64(length) > size-headerLen {
		return 0, nil, size
	}
	rec = make([]byte, length)
	if _, err := f.ReadAt(rec, headerLen); err != nil {
		return 0, nil, size
	}
	if checksum(h[len(magic):len(magic)+12], rec) != binary.BigEndian.Uint32(h[len(magic)+12:]) {
		return 0, nil, size
	}
	return seq, rec, size
}

// checksum is the CRC-32 of a frame's sequence and length, then its
// record.
func checksum(seqAndLen, rec []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(seqAndLen), crc32.IEEETable, rec)
}

// syncDir fsyncs a directory so a created file's name is durable (best
// effort; some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Append makes rec the newest state: it writes it over the older slot,
// truncates that slot to the new length and fsyncs it before returning.
func (j *Journal) Append(rec []byte) error {
	start := time.Now()
	err := j.append(rec)
	if err != nil {
		mJournalErrors.Inc()
	} else {
		mAppendLatency.ObserveDuration(time.Since(start))
	}
	return err
}

func (j *Journal) append(rec []byte) error {
	if len(rec) > maxRecordBytes {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(rec), maxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	seq := j.seq + 1
	b := append(j.buf[:0], magic...)
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rec)))
	b = binary.BigEndian.AppendUint32(b, checksum(b[len(magic):], rec))
	b = append(b, rec...)
	j.buf = b
	i := seq % 2
	f, size := j.slots[i], int64(len(b))
	if _, err := f.WriteAt(b, 0); err != nil {
		j.sizes[i] = -1 // unknown: truncate on the next write
		return fmt.Errorf("journal: write: %w", err)
	}
	if j.sizes[i] < 0 || j.sizes[i] > size {
		if err := f.Truncate(size); err != nil {
			j.sizes[i] = -1
			return fmt.Errorf("journal: truncate: %w", err)
		}
	}
	j.sizes[i] = size
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.seq = seq
	j.stats.Appends++
	j.stats.Bytes = int64(len(rec))
	return nil
}

// Stats returns a copy of the counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Close closes the slot files. Every Append has already synced, so it
// writes nothing. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.closeFiles()
}

func (j *Journal) closeFiles() error {
	var first error
	for _, f := range j.slots {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
