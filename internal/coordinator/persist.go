package coordinator

import (
	"errors"
	"sort"
	"time"

	"condor/internal/accounting"
	"condor/internal/codec"
	"condor/internal/eventlog"
	"condor/internal/journal"
	"condor/internal/proto"
)

// The coordinator's durable state. With Config.StateDir set, the state
// that polls cannot rebuild — up-down indexes (§2.4: the index is the
// pool's fairness memory), reservations (§5.3: promises made to users),
// the station table, quarantines, allocation totals, the policy name and
// the incarnation — is one record, rewritten whole by saveState at the
// end of every cycle and before Reserve, CancelReservation and a
// membership-changing registration return. On startup rebuildState
// decodes it, so a restarted coordinator resumes with the fairness state
// and reservation promises of its previous incarnation instead of
// resetting every heavy user to neutral priority and silently
// scavenging reserved machines.

// persistReservation is one live reservation.
type persistReservation struct {
	Holder         string
	UntilUnixMilli int64
}

// persistStation is one registered station: its address, its up-down
// index, and its graded health, so a quarantine survives a coordinator
// restart (the station must still pass its readmission probes under the
// new incarnation). A healthy station saves Health 0 and no reason or
// time.
type persistStation struct {
	Name           string
	Addr           string
	Index          float64
	Health         int
	Reason         string
	SinceUnixMilli int64
}

// persistState is the journal's one record: the whole durable state.
type persistState struct {
	// Stations is every registered station, in name order.
	Stations []persistStation
	// Reservations maps station → live reservation.
	Reservations map[string]persistReservation
	// Alloc is the accounting ledger's per-station allocation totals.
	Alloc map[string]accounting.AllocTotals
	// PolicyName is the active scheduling policy, so a restart without
	// an explicit -policy keeps scheduling the same way. Empty means the
	// default policy.
	PolicyName string
	// Incarnation counts the starts of this state directory, 1 on the
	// first.
	Incarnation uint64
}

// A state is persistFormat, then every field in declaration order in
// internal/codec's encoding. Stations and maps are their count, then
// each entry in name or key order, so a state has exactly one encoding.
const persistFormat = 0x81

var errPersistFormat = errors.New("coordinator: not a coordinator state of this format")

// encodeState appends st's encoding to dst.
func encodeState(dst []byte, st persistState) []byte {
	b := codec.AppendUint(append(dst, persistFormat), uint64(len(st.Stations)))
	for _, s := range st.Stations {
		b = codec.AppendFloat(codec.AppendString(codec.AppendString(b, s.Name), s.Addr), s.Index)
		b = codec.AppendInt(b, int64(s.Health))
		b = codec.AppendInt(codec.AppendString(b, s.Reason), s.SinceUnixMilli)
	}
	b = appendMap(b, st.Reservations, func(b []byte, r persistReservation) []byte {
		return codec.AppendInt(codec.AppendString(b, r.Holder), r.UntilUnixMilli)
	})
	b = appendMap(b, st.Alloc, appendAlloc)
	b = codec.AppendString(b, st.PolicyName)
	return codec.AppendUint(b, st.Incarnation)
}

func decodeState(b []byte) (persistState, error) {
	r, err := persistReader(b)
	if err != nil {
		return persistState{}, err
	}
	var st persistState
	n := r.ReadCount(6) // a station is at least six one-byte fields
	for i := 0; i < n; i++ {
		s := persistStation{Name: r.ReadString(), Addr: r.ReadString(), Index: r.ReadFloat(),
			Health: int(r.ReadInt()), Reason: r.ReadString(), SinceUnixMilli: r.ReadInt()}
		if i > 0 && s.Name <= st.Stations[i-1].Name {
			r.Fail("stations out of order")
		}
		st.Stations = append(st.Stations, s)
	}
	st.Reservations = readMap(&r, func(r *codec.Reader) persistReservation {
		return persistReservation{Holder: r.ReadString(), UntilUnixMilli: r.ReadInt()}
	})
	st.Alloc = readMap(&r, readAlloc)
	st.PolicyName = r.ReadString()
	st.Incarnation = r.ReadUint()
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

// rebuildState decodes the journal's record into the state a fresh
// coordinator starts from, dropping reservations already expired at
// now. A nil record is an empty state; so is an undecodable one, with
// its error.
func rebuildState(b []byte, now time.Time) (persistState, error) {
	if b == nil {
		return persistState{}, nil
	}
	st, err := decodeState(b)
	if err != nil {
		return persistState{}, err
	}
	for station, r := range st.Reservations {
		if !time.UnixMilli(r.UntilUnixMilli).After(now) {
			delete(st.Reservations, station)
		}
	}
	return st, nil
}

// openJournal restores StateDir's state, bumps the incarnation, resolves
// the policy and saves at once, so a crash loop still counts
// incarnations. Called from New before the server or poll loop start.
func (c *Coordinator) openJournal() error {
	j, rec, err := journal.Open(c.cfg.StateDir, journal.Config{})
	if err != nil {
		return err
	}
	c.journal = j
	// Files of the log-era layout are never read: each is logged and
	// counted on every start while it exists.
	for _, name := range j.Stats().Legacy {
		c.stats.JournalErrors++
		c.events.Append(eventlog.Event{Kind: eventlog.KindFault,
			Detail: "journal: log-era file " + name + " ignored"})
	}
	now := time.Now()
	st, err := rebuildState(rec, now)
	if err != nil {
		c.stats.JournalErrors++
	}
	c.incarnation = st.Incarnation + 1
	indexes := make(map[string]float64, len(st.Stations))
	for _, ps := range st.Stations {
		s := &station{name: ps.Name, addr: ps.Addr, series: indexSeries(ps.Name), reachable: true}
		s.health = newHealth(ps.Name, now)
		if h := proto.StationHealth(ps.Health); h != 0 && h != proto.HealthHealthy {
			s.health.state = h
			s.health.reason = ps.Reason
			s.health.since = time.UnixMilli(ps.SinceUnixMilli)
			s.health.unhealthySince = s.health.since
			if h == proto.HealthQuarantined {
				// Probe promptly under the new incarnation: the old
				// backoff schedule died with the old process, and the
				// station still has to earn readmission.
				s.health.backoffs = 1
				s.health.probeAt = now
			}
		}
		c.stations[ps.Name] = s
		c.names = append(c.names, ps.Name)
		indexes[ps.Name] = ps.Index
	}
	c.table.Restore(indexes)
	// A restored index starts a fresh trajectory: pre-crash samples are
	// not part of the state.
	for name := range indexes {
		c.led.Sampler().Observe(c.stations[name].series, now, c.table.Index(name))
	}
	c.led.RestoreAlloc(st.Alloc)
	for name, r := range st.Reservations {
		c.reservations[name] = reservation{
			holder: r.Holder,
			until:  time.UnixMilli(r.UntilUnixMilli),
		}
	}
	// An explicit-config mismatch fails startup before the state is
	// rewritten.
	if err := c.resolvePolicy(st.PolicyName); err != nil {
		c.journal.Close()
		c.journal = nil
		return err
	}
	c.saveState()
	return nil
}

// saveState writes the whole current state as the journal's one record.
// saveMu keeps a later state from being overwritten by an earlier one;
// the fsync runs outside c.mu. Journal failures never take down
// allocation: they are counted, and Ready reports them. Caller must NOT
// hold c.mu.
func (c *Coordinator) saveState() {
	if c.journal == nil {
		return
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	c.mu.Lock()
	st := persistState{
		Stations:     c.saveStations[:0],
		Reservations: make(map[string]persistReservation, len(c.reservations)),
		Alloc:        c.led.AllocSnapshot(),
		PolicyName:   c.pipeline.Name(),
		Incarnation:  c.incarnation,
	}
	for _, name := range c.names {
		s := c.stations[name]
		ps := persistStation{Name: name, Addr: s.addr, Index: c.table.Index(name)}
		if s.health.state != proto.HealthHealthy {
			ps.Health, ps.Reason, ps.SinceUnixMilli = int(s.health.state), s.health.reason, s.health.since.UnixMilli()
		}
		st.Stations = append(st.Stations, ps)
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
	c.saveStations = st.Stations
	c.saveBuf = encodeState(c.saveBuf[:0], st)
	if err := c.journal.Append(c.saveBuf); err != nil {
		c.mu.Lock()
		c.stats.JournalErrors++
		c.mu.Unlock()
		c.journalHealthy.Store(false)
		return
	}
	c.journalHealthy.Store(true)
}
