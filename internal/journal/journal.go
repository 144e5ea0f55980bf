// Package journal implements the coordinator's durable-state layer: a
// generic append-only record log with CRC-checked, length-prefixed
// records, periodic full-state snapshots, and crash-safe replay.
//
// The paper's coordinator is deliberately thin — §2.1 argues "its
// recovery at another site is simplified" because stations hold their
// own queues — but some coordinator state is genuinely irreplaceable:
// the Up-Down schedule indexes (§2.4) are the pool's fairness memory,
// and §5.3 reservations are promises made to users. A journal makes
// both survive a coordinator crash.
//
// On-disk layout (all inside one directory):
//
//	incarnation          decimal restart counter, bumped on every Open
//	snapshot.<G>.snap    full state at generation G (magic + CRC framed)
//	journal.<G>.log      records appended since snapshot G
//
// Writing snapshot G+1 starts a fresh empty log for generation G+1 and
// retires generation G's files, so replay cost is bounded by the
// snapshot interval (size-triggered compaction via NeedsCompaction).
// Replay tolerates a torn tail — a record cut short by a crash is
// truncated away, never an error — while a corrupt snapshot falls back
// to the previous generation.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"condor/internal/telemetry"
)

// Journal telemetry (see docs/OBSERVABILITY.md). Append latency includes
// the fsync when the SyncEvery policy issues one, so the histogram shows
// the bimodal synced/unsynced cost directly.
var (
	mAppendLatency = telemetry.NewHistogram("condor_journal_append_seconds",
		"Latency of one journal record append, fsync included when issued.", nil)
	mSnapshotLatency = telemetry.NewHistogram("condor_journal_snapshot_seconds",
		"Latency of one full-state snapshot write (fsync, rename, log rotation).", nil)
	mJournalErrors = telemetry.NewCounter("condor_journal_errors_total",
		"Journal appends or snapshots that failed.")
)

// File framing constants.
const (
	// snapMagic identifies a snapshot file.
	snapMagic = "CNDRSNAP"
	// snapVersion is the current snapshot format version.
	snapVersion = 1
	// recHeaderLen is the per-record header: uint32 length + uint32 CRC.
	recHeaderLen = 8
	// maxRecordBytes bounds one record (and one snapshot payload) so a
	// corrupt length field cannot trigger a huge allocation on replay.
	maxRecordBytes = 16 << 20
)

// ErrClosed is returned for operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Config tunes a journal.
type Config struct {
	// SyncEvery fsyncs the log after every Nth append (1 = every
	// append, the default; negative = never fsync, for tests and
	// benchmarks that accept losing the tail on a machine crash).
	SyncEvery int
	// CompactBytes is the log size beyond which NeedsCompaction reports
	// true, prompting the owner to write a snapshot (default 1 MiB).
	CompactBytes int64
}

func (c *Config) sanitize() {
	if c.SyncEvery == 0 {
		c.SyncEvery = 1
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 1 << 20
	}
}

// Stats counts journal activity since Open.
type Stats struct {
	// Generation is the current snapshot generation.
	Generation uint64
	// Incarnation is how many times this state directory has been
	// opened (1 on the very first run).
	Incarnation uint64
	// Appends is how many records were appended this incarnation.
	Appends uint64
	// Syncs is how many fsyncs the append path issued.
	Syncs uint64
	// Snapshots is how many snapshots were written this incarnation.
	Snapshots uint64
	// LogBytes is the current log file size.
	LogBytes int64
	// ReplayedRecords is how many records Open replayed.
	ReplayedRecords uint64
	// TruncatedBytes is how much torn tail Open cut off the log.
	TruncatedBytes int64
	// SnapshotRestored reports whether Open found a usable snapshot.
	SnapshotRestored bool
}

// State is what Open recovered from the directory: the latest valid
// snapshot (nil when none was ever written) and every record appended
// after it, in append order.
type State struct {
	Snapshot    []byte
	Records     [][]byte
	Incarnation uint64
}

// Journal is an open append-only log. It is safe for concurrent use.
type Journal struct {
	dir string
	cfg Config

	mu          sync.Mutex
	f           *os.File
	gen         uint64
	size        int64
	unsynced    int
	stats       Stats
	incarnation uint64
	closed      bool
}

// Open recovers the directory's state and opens the log for appending,
// bumping the incarnation counter. The directory is created if needed.
func Open(dir string, cfg Config) (*Journal, State, error) {
	cfg.sanitize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, State{}, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, cfg: cfg}

	inc, err := j.bumpIncarnation()
	if err != nil {
		return nil, State{}, err
	}
	j.incarnation = inc

	gen, snapshot := j.loadLatestSnapshot()
	j.gen = gen
	records, truncated, err := j.replayLog(j.logPath(gen))
	if err != nil {
		return nil, State{}, err
	}

	f, err := os.OpenFile(j.logPath(gen), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, State{}, fmt.Errorf("journal: open log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, State{}, fmt.Errorf("journal: stat log: %w", err)
	}
	j.f = f
	j.size = fi.Size()
	j.stats = Stats{
		Generation:       gen,
		Incarnation:      inc,
		LogBytes:         j.size,
		ReplayedRecords:  uint64(len(records)),
		TruncatedBytes:   truncated,
		SnapshotRestored: snapshot != nil,
	}
	j.removeStaleFiles(gen)
	return j, State{Snapshot: snapshot, Records: records, Incarnation: inc}, nil
}

// bumpIncarnation reads, increments, and atomically rewrites the
// restart counter. An unreadable counter restarts from 1 rather than
// blocking recovery.
func (j *Journal) bumpIncarnation() (uint64, error) {
	path := filepath.Join(j.dir, "incarnation")
	var prev uint64
	if b, err := os.ReadFile(path); err == nil {
		if n, perr := strconv.ParseUint(string(b), 10, 64); perr == nil {
			prev = n
		}
	}
	next := prev + 1
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(next, 10)), 0o644); err != nil {
		return 0, fmt.Errorf("journal: write incarnation: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("journal: commit incarnation: %w", err)
	}
	return next, nil
}

func (j *Journal) snapPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("snapshot.%d.snap", gen))
}

func (j *Journal) logPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("journal.%d.log", gen))
}

// loadLatestSnapshot returns the highest generation whose snapshot
// decodes cleanly, falling back generation by generation on corruption.
// Generation 0 with a nil payload means "no snapshot; empty state".
func (j *Journal) loadLatestSnapshot() (uint64, []byte) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return 0, nil
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "snapshot.%d.snap", &g); n == 1 {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] > gens[b] })
	for _, g := range gens {
		if payload, err := readSnapshotFile(j.snapPath(g)); err == nil {
			return g, payload
		}
	}
	return 0, nil
}

// readSnapshotFile decodes one snapshot file, verifying magic, version
// and CRC.
func readSnapshotFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header := len(snapMagic) + 12 // version + length + crc
	if len(b) < header || string(b[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("journal: bad snapshot header")
	}
	if v := binary.BigEndian.Uint32(b[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("journal: snapshot version %d unsupported", v)
	}
	length := binary.BigEndian.Uint32(b[len(snapMagic)+4:])
	wantCRC := binary.BigEndian.Uint32(b[len(snapMagic)+8:])
	if length > maxRecordBytes || len(b) < header+int(length) {
		return nil, errors.New("journal: snapshot truncated")
	}
	payload := b[header : header+int(length)]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, errors.New("journal: snapshot checksum mismatch")
	}
	return payload, nil
}

// replayLog reads every intact record from the log at path. A torn tail
// — truncated header, truncated payload, zero length, absurd length, or
// CRC mismatch — ends replay and is physically truncated away so the
// next append starts on a clean boundary. A missing log is simply empty.
func (j *Journal) replayLog(path string) (records [][]byte, truncated int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: read log: %w", err)
	}
	off := 0
	for {
		if len(b)-off < recHeaderLen {
			break
		}
		length := binary.BigEndian.Uint32(b[off:])
		wantCRC := binary.BigEndian.Uint32(b[off+4:])
		if length == 0 || length > maxRecordBytes || len(b)-off-recHeaderLen < int(length) {
			break
		}
		payload := b[off+recHeaderLen : off+recHeaderLen+int(length)]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			break
		}
		records = append(records, append([]byte(nil), payload...))
		off += recHeaderLen + int(length)
	}
	if off < len(b) {
		truncated = int64(len(b) - off)
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, 0, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	return records, truncated, nil
}

// removeStaleFiles deletes snapshots and logs of other generations
// (best effort — leftovers are harmless and retried next open).
func (j *Journal) removeStaleFiles(keep uint64) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var g uint64
		switch {
		case scanGen(e.Name(), "snapshot.%d.snap", &g), scanGen(e.Name(), "journal.%d.log", &g):
			if g != keep {
				os.Remove(filepath.Join(j.dir, e.Name()))
			}
		case filepath.Ext(e.Name()) == ".tmp":
			os.Remove(filepath.Join(j.dir, e.Name()))
		}
	}
}

func scanGen(name, pattern string, g *uint64) bool {
	n, _ := fmt.Sscanf(name, pattern, g)
	// Sscanf accepts prefixes; require the reconstruction to match so
	// "snapshot.3.snap.bak" is not mistaken for generation 3.
	return n == 1 && fmt.Sprintf(pattern, *g) == name
}

// Append adds one record to the log, fsyncing per the SyncEvery policy.
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
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	frame := make([]byte, recHeaderLen+len(rec))
	binary.BigEndian.PutUint32(frame, uint32(len(rec)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	copy(frame[recHeaderLen:], rec)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	j.stats.Appends++
	j.stats.LogBytes = j.size
	j.unsynced++
	if j.cfg.SyncEvery > 0 && j.unsynced >= j.cfg.SyncEvery {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		j.unsynced = 0
		j.stats.Syncs++
	}
	return nil
}

// Snapshot atomically writes the full state as generation G+1 and
// starts a fresh empty log for it, retiring generation G's files. After
// a crash at any point, Open recovers either the old generation intact
// or the new one — never a mix.
func (j *Journal) Snapshot(state []byte) error {
	start := time.Now()
	err := j.snapshot(state)
	if err != nil {
		mJournalErrors.Inc()
	} else {
		mSnapshotLatency.ObserveDuration(time.Since(start))
	}
	return err
}

func (j *Journal) snapshot(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	next := j.gen + 1

	header := make([]byte, 0, len(snapMagic)+12)
	header = append(header, snapMagic...)
	header = binary.BigEndian.AppendUint32(header, snapVersion)
	header = binary.BigEndian.AppendUint32(header, uint32(len(state)))
	header = binary.BigEndian.AppendUint32(header, crc32.ChecksumIEEE(state))

	tmp, err := os.CreateTemp(j.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(e error) error { tmp.Close(); os.Remove(tmpName); return e }
	if _, err := tmp.Write(header); err != nil {
		return cleanup(fmt.Errorf("journal: snapshot write: %w", err))
	}
	if _, err := tmp.Write(state); err != nil {
		return cleanup(fmt.Errorf("journal: snapshot write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("journal: snapshot sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, j.snapPath(next)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("journal: snapshot commit: %w", err)
	}

	newLog, err := os.OpenFile(j.logPath(next), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: new log: %w", err)
	}
	old := j.f
	oldGen := j.gen
	j.f = newLog
	j.gen = next
	j.size = 0
	j.unsynced = 0
	j.stats.Generation = next
	j.stats.Snapshots++
	j.stats.LogBytes = 0
	if old != nil {
		old.Close()
	}
	os.Remove(j.logPath(oldGen))
	os.Remove(j.snapPath(oldGen))
	syncDir(j.dir)
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable
// (best effort; some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// NeedsCompaction reports whether the log has outgrown CompactBytes and
// the owner should write a snapshot.
func (j *Journal) NeedsCompaction() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size >= j.cfg.CompactBytes
}

// Incarnation returns the directory's restart counter (1 on first run).
func (j *Journal) Incarnation() uint64 { return j.incarnation }

// Stats returns a snapshot of the counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Dir returns the state directory.
func (j *Journal) Dir() string { return j.dir }

// Close syncs and closes the log. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
