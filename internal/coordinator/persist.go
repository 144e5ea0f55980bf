package coordinator

import (
	"errors"
	"sort"
	"time"

	"condor/internal/accounting"
	"condor/internal/codec"
	"condor/internal/journal"
	"condor/internal/proto"
)

// The coordinator's durable-state layer. With Config.StateDir set, every
// state transition that is not reconstructible from polls — up-down
// index movements (§2.4: the index is the pool's fairness memory),
// reservations (§5.3: promises made to users), and the station table —
// is journaled, and the full state is snapshotted every SnapshotEvery
// cycles (or earlier when the log outgrows its compaction threshold).
// On startup the snapshot plus the record tail are replayed, so a
// restarted coordinator resumes with the fairness state and reservation
// promises of its previous incarnation instead of resetting every heavy
// user to neutral priority and silently scavenging reserved machines.

// Journal record kinds.
const (
	recRegister   = "register"   // station joined (or changed address)
	recUnregister = "unregister" // station declared dead / removed
	recUpdown     = "updown"     // one cycle's absolute index values
	recReserve    = "reserve"    // reservation granted or extended
	recCancel     = "cancel"     // reservation released
	recAcct       = "acct"       // one cycle's absolute allocation totals
	recHealth     = "health"     // station health-state transition
	recPolicy     = "policy"     // active scheduling-policy name (in Name)
)

// persistRecord is one journaled state delta. Index values are absolute
// (the value *after* the update), so replay is idempotent and a record
// can be applied without knowing its predecessors beyond the snapshot.
type persistRecord struct {
	Kind string
	// Name is the station the record concerns.
	Name string
	// Addr is the station address (register records).
	Addr string
	// Indexes carries one cycle's updated up-down values (updown records).
	Indexes map[string]float64
	// Holder and UntilUnixMilli describe a reservation (reserve records).
	Holder         string
	UntilUnixMilli int64
	// Alloc carries per-station allocation totals (acct records). Values
	// are absolute, like Indexes.
	Alloc map[string]accounting.AllocTotals
	// Health, Reason, and SinceUnixMilli describe a station health-state
	// transition (health records): the absolute state after the
	// transition, why, and when.
	Health         int
	Reason         string
	SinceUnixMilli int64
}

// persistReservation is a reservation inside a snapshot.
type persistReservation struct {
	Holder         string
	UntilUnixMilli int64
}

// persistHealth is one station's health state inside a snapshot.
type persistHealth struct {
	State          int
	Reason         string
	SinceUnixMilli int64
}

// persistState is the full snapshot payload.
type persistState struct {
	// Stations maps name → address for every registered station.
	Stations map[string]string
	// Indexes is the complete up-down table.
	Indexes map[string]float64
	// Reservations maps station → live reservation.
	Reservations map[string]persistReservation
	// Alloc is the accounting ledger's per-station allocation totals.
	Alloc map[string]accounting.AllocTotals
	// Health maps station → graded health state, so a quarantine
	// survives a coordinator restart (the station must still pass its
	// readmission probes under the new incarnation).
	Health map[string]persistHealth
	// PolicyName is the active scheduling policy, so a restart without
	// an explicit -policy keeps scheduling the same way. Empty means the
	// default policy.
	PolicyName string
}

// Records and snapshots are persistFormat, then every field in
// declaration order in internal/codec's encoding. A map is its count,
// then key and value per entry in key order, so a state has exactly one
// encoding.
//
// persistFormat is a byte no gob message starts with (gob opens with a
// byte count below 0x80 or from 0xf8 up), so a record or snapshot that
// gob wrote before this layout is refused on its first byte and counted
// as a journal error, never misread.
const persistFormat = 0x81

var errPersistFormat = errors.New("coordinator: not a journal record or snapshot of this format")

func encodeRecord(rec persistRecord) []byte {
	b := []byte{persistFormat}
	b = codec.AppendString(b, rec.Kind)
	b = codec.AppendString(b, rec.Name)
	b = codec.AppendString(b, rec.Addr)
	b = appendMap(b, rec.Indexes, codec.AppendFloat)
	b = codec.AppendString(b, rec.Holder)
	b = codec.AppendInt(b, rec.UntilUnixMilli)
	b = appendMap(b, rec.Alloc, appendAlloc)
	b = codec.AppendInt(b, int64(rec.Health))
	b = codec.AppendString(b, rec.Reason)
	return codec.AppendInt(b, rec.SinceUnixMilli)
}

func decodeRecord(b []byte) (persistRecord, error) {
	r, err := persistReader(b)
	if err != nil {
		return persistRecord{}, err
	}
	rec := persistRecord{Kind: r.ReadString(), Name: r.ReadString(), Addr: r.ReadString(),
		Indexes: readMap(&r, (*codec.Reader).ReadFloat),
		Holder:  r.ReadString(), UntilUnixMilli: r.ReadInt(),
		Alloc:  readMap(&r, readAlloc),
		Health: int(r.ReadInt()), Reason: r.ReadString(), SinceUnixMilli: r.ReadInt()}
	if err := r.End(); err != nil {
		return persistRecord{}, err
	}
	return rec, nil
}

func encodeState(st persistState) []byte {
	b := []byte{persistFormat}
	b = appendMap(b, st.Stations, codec.AppendString)
	b = appendMap(b, st.Indexes, codec.AppendFloat)
	b = appendMap(b, st.Reservations, func(b []byte, r persistReservation) []byte {
		return codec.AppendInt(codec.AppendString(b, r.Holder), r.UntilUnixMilli)
	})
	b = appendMap(b, st.Alloc, appendAlloc)
	b = appendMap(b, st.Health, func(b []byte, h persistHealth) []byte {
		b = codec.AppendInt(b, int64(h.State))
		return codec.AppendInt(codec.AppendString(b, h.Reason), h.SinceUnixMilli)
	})
	return codec.AppendString(b, st.PolicyName)
}

func decodeState(b []byte) (persistState, error) {
	r, err := persistReader(b)
	if err != nil {
		return persistState{}, err
	}
	st := persistState{
		Stations: readMap(&r, (*codec.Reader).ReadString),
		Indexes:  readMap(&r, (*codec.Reader).ReadFloat),
		Reservations: readMap(&r, func(r *codec.Reader) persistReservation {
			return persistReservation{Holder: r.ReadString(), UntilUnixMilli: r.ReadInt()}
		}),
		Alloc: readMap(&r, readAlloc),
		Health: readMap(&r, func(r *codec.Reader) persistHealth {
			return persistHealth{State: int(r.ReadInt()), Reason: r.ReadString(), SinceUnixMilli: r.ReadInt()}
		}),
		PolicyName: r.ReadString(),
	}
	if err := r.End(); err != nil {
		return persistState{}, err
	}
	return st, nil
}

// persistReader checks b's format byte and reads the rest.
func persistReader(b []byte) (codec.Reader, error) {
	if len(b) == 0 || b[0] != persistFormat {
		return codec.Reader{}, errPersistFormat
	}
	return codec.NewReader(b[1:]), nil
}

func appendAlloc(b []byte, a accounting.AllocTotals) []byte {
	b = codec.AppendUint(b, a.Grants)
	b = codec.AppendUint(b, a.GrantsUsed)
	b = codec.AppendUint(b, a.GrantsDenied)
	b = codec.AppendUint(b, a.Preempts)
	b = codec.AppendUint(b, a.CapacityCycles)
	return codec.AppendInt(b, a.CapacityNanos)
}

func readAlloc(r *codec.Reader) accounting.AllocTotals {
	return accounting.AllocTotals{Grants: r.ReadUint(), GrantsUsed: r.ReadUint(), GrantsDenied: r.ReadUint(),
		Preempts: r.ReadUint(), CapacityCycles: r.ReadUint(), CapacityNanos: r.ReadInt()}
}

// appendMap appends m: its count, then each key and value in key order.
func appendMap[V any](b []byte, m map[string]V, appendValue func([]byte, V) []byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = codec.AppendUint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendValue(codec.AppendString(b, k), m[k])
	}
	return b
}

// readMap reads appendMap's form, refusing keys out of order; an empty
// map is nil.
func readMap[V any](r *codec.Reader, readValue func(*codec.Reader) V) map[string]V {
	n := r.ReadCount(2) // an entry is at least a key length and a value
	if n == 0 {
		return nil
	}
	m := make(map[string]V, n)
	var prev string
	for i := 0; i < n; i++ {
		k := r.ReadString()
		if i > 0 && k <= prev {
			r.Fail("map keys out of order")
		}
		m[k] = readValue(r)
		prev = k
	}
	return m
}

// rebuildState folds a recovered snapshot and record tail into the
// state a fresh coordinator should start from. Reservations already
// expired at `now` are dropped. Undecodable inputs are skipped and
// counted rather than fatal: a coordinator that lost a record must
// still come up — the degradation is bounded (that record's delta) and
// the next poll cycle re-observes the live pool anyway.
func rebuildState(snapshot []byte, records [][]byte, now time.Time) (persistState, int) {
	st := persistState{
		Stations:     make(map[string]string),
		Indexes:      make(map[string]float64),
		Reservations: make(map[string]persistReservation),
		Alloc:        make(map[string]accounting.AllocTotals),
		Health:       make(map[string]persistHealth),
	}
	skipped := 0
	if snapshot != nil {
		if snap, err := decodeState(snapshot); err == nil {
			for k, v := range snap.Stations {
				st.Stations[k] = v
			}
			for k, v := range snap.Indexes {
				st.Indexes[k] = v
			}
			for k, v := range snap.Reservations {
				st.Reservations[k] = v
			}
			for k, v := range snap.Alloc {
				st.Alloc[k] = v
			}
			for k, v := range snap.Health {
				st.Health[k] = v
			}
			st.PolicyName = snap.PolicyName
		} else {
			skipped++
		}
	}
	for _, b := range records {
		rec, err := decodeRecord(b)
		if err != nil {
			skipped++
			continue
		}
		switch rec.Kind {
		case recRegister:
			st.Stations[rec.Name] = rec.Addr
			if _, ok := st.Indexes[rec.Name]; !ok {
				st.Indexes[rec.Name] = 0 // Touch: fresh stations start neutral
			}
		case recUnregister:
			delete(st.Stations, rec.Name)
			delete(st.Indexes, rec.Name)
			delete(st.Reservations, rec.Name)
			delete(st.Health, rec.Name)
		case recUpdown:
			for name, idx := range rec.Indexes {
				st.Indexes[name] = idx
			}
		case recReserve:
			st.Reservations[rec.Name] = persistReservation{
				Holder:         rec.Holder,
				UntilUnixMilli: rec.UntilUnixMilli,
			}
		case recCancel:
			delete(st.Reservations, rec.Name)
		case recAcct:
			for name, a := range rec.Alloc {
				st.Alloc[name] = a
			}
		case recHealth:
			st.Health[rec.Name] = persistHealth{
				State:          rec.Health,
				Reason:         rec.Reason,
				SinceUnixMilli: rec.SinceUnixMilli,
			}
		case recPolicy:
			st.PolicyName = rec.Name
		default:
			skipped++
		}
	}
	for station, r := range st.Reservations {
		if !time.UnixMilli(r.UntilUnixMilli).After(now) {
			delete(st.Reservations, station)
		}
	}
	return st, skipped
}

// openJournal recovers StateDir and installs the rebuilt state. Called
// from New before the server or poll loop start, so no locking races.
func (c *Coordinator) openJournal() error {
	j, recovered, err := journal.Open(c.cfg.StateDir, journal.Config{})
	if err != nil {
		return err
	}
	c.journal = j
	st, skipped := rebuildState(recovered.Snapshot, recovered.Records, time.Now())
	c.stats.JournalErrors += uint64(skipped)
	now := time.Now()
	for name, addr := range st.Stations {
		s := &station{name: name, addr: addr, reachable: true}
		s.health = newHealth(name, now)
		if h, ok := st.Health[name]; ok && h.State != 0 {
			s.health.state = proto.StationHealth(h.State)
			s.health.reason = h.Reason
			s.health.since = time.UnixMilli(h.SinceUnixMilli)
			if s.health.state != proto.HealthHealthy {
				s.health.unhealthySince = s.health.since
			}
			if s.health.state == proto.HealthQuarantined {
				// Probe promptly under the new incarnation: the old
				// backoff schedule died with the old process, and the
				// station still has to earn readmission.
				s.health.backoff = c.cfg.Health.ProbeBase
				s.health.probeAt = now
			}
		}
		c.stations[name] = s
	}
	c.table.Restore(st.Indexes)
	c.led.RestoreAlloc(st.Alloc)
	for name, r := range st.Reservations {
		c.reservations[name] = reservation{
			holder: r.Holder,
			until:  time.UnixMilli(r.UntilUnixMilli),
		}
	}
	// Resolve the policy before compacting so the snapshot below
	// records the active name (and an explicit-config mismatch fails
	// startup before any state is rewritten).
	if err := c.resolvePolicy(st.PolicyName); err != nil {
		c.journal.Close()
		c.journal = nil
		return err
	}
	// Compact immediately: recovery cost stays bounded even across a
	// crash loop, and the replayed tail is folded into one snapshot.
	if len(recovered.Records) > 0 || recovered.Snapshot != nil {
		c.snapshotJournal()
	}
	return nil
}

// appendJournalLocked encodes and appends one record. Caller holds c.mu
// (which is what serializes record order). Journal failures must never
// take down allocation — they are counted and surfaced via Stats.
func (c *Coordinator) appendJournalLocked(rec persistRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(encodeRecord(rec)); err != nil {
		c.stats.JournalErrors++
		c.journalHealthy.Store(false)
		return
	}
	c.journalHealthy.Store(true)
}

// snapshotJournal writes the full current state as a new snapshot
// generation. Caller must NOT hold c.mu.
func (c *Coordinator) snapshotJournal() {
	if c.journal == nil {
		return
	}
	c.mu.Lock()
	st := persistState{
		Stations:     make(map[string]string, len(c.stations)),
		Indexes:      c.table.Snapshot(),
		Reservations: make(map[string]persistReservation, len(c.reservations)),
		Alloc:        c.led.AllocSnapshot(),
		Health:       make(map[string]persistHealth, len(c.stations)),
		PolicyName:   c.pipeline.Name(),
	}
	for name, s := range c.stations {
		st.Stations[name] = s.addr
		if s.health.state != 0 && s.health.state != proto.HealthHealthy {
			// Healthy is the default on restore; snapshotting only the
			// exceptions keeps snapshots quiet for a healthy pool.
			st.Health[name] = persistHealth{
				State:          int(s.health.state),
				Reason:         s.health.reason,
				SinceUnixMilli: s.health.since.UnixMilli(),
			}
		}
	}
	now := time.Now()
	for name, r := range c.reservations {
		if r.until.After(now) {
			st.Reservations[name] = persistReservation{
				Holder:         r.holder,
				UntilUnixMilli: r.until.UnixMilli(),
			}
		}
	}
	c.mu.Unlock()
	if err := c.journal.Snapshot(encodeState(st)); err != nil {
		c.bump(func(s *Stats) { s.JournalErrors++ })
		c.journalHealthy.Store(false)
		return
	}
	c.journalHealthy.Store(true)
}
