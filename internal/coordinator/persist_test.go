package coordinator

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"condor/internal/accounting"
	"condor/internal/journal"
)

// sampleRecords is one record of every kind, plus one kind this build
// does not know.
func sampleRecords() []persistRecord {
	return []persistRecord{
		{Kind: recRegister, Name: "ws1", Addr: "127.0.0.1:1"},
		{Kind: recUnregister, Name: "ws9"},
		{Kind: recUpdown, Indexes: map[string]float64{"ws1": 2.5, "ws2": -0.125, "ws3": 0}},
		{Kind: recReserve, Name: "ws2", Holder: "ws1", UntilUnixMilli: 4102444800000},
		{Kind: recCancel, Name: "ws2"},
		{Kind: recAcct, Alloc: map[string]accounting.AllocTotals{
			"ws1": {Grants: 3, GrantsUsed: 2, GrantsDenied: 1, Preempts: 1, CapacityCycles: 300, CapacityNanos: -1},
		}},
		{Kind: recHealth, Name: "ws2", Health: 3, Reason: "timeout", SinceUnixMilli: 1700000000000},
		{Kind: recPolicy, Name: "fifo"},
		{Kind: "future-kind", Name: "ws1"},
	}
}

func sampleState() persistState {
	return persistState{
		Stations:     map[string]string{"ws1": "127.0.0.1:1", "ws2": "127.0.0.1:2"},
		Indexes:      map[string]float64{"ws1": 1.75, "ws2": 0},
		Reservations: map[string]persistReservation{"ws2": {Holder: "ws1", UntilUnixMilli: 4102444800000}},
		Alloc:        map[string]accounting.AllocTotals{"ws1": {Grants: 1, CapacityNanos: 5}},
		Health:       map[string]persistHealth{"ws2": {State: 3, Reason: "flap", SinceUnixMilli: 7}},
		PolicyName:   "updown",
	}
}

// TestJournalCodecRoundTrip: every record kind and a full snapshot decode
// to what was encoded, and map order does not change the bytes.
func TestJournalCodecRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		b := encodeRecord(rec)
		got, err := decodeRecord(b)
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s record: decoded %+v, %v; want %+v", rec.Kind, got, err, rec)
		}
		for i := 0; i < 10; i++ { // map iteration order varies run to run
			if again := encodeRecord(rec); !bytes.Equal(again, b) {
				t.Fatalf("%s record encodes two ways", rec.Kind)
			}
		}
	}
	st := sampleState()
	got, err := decodeState(encodeState(st))
	if err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("snapshot: decoded %+v, %v; want %+v", got, err, st)
	}
	if _, err := decodeState(append(encodeState(st), 0)); err == nil {
		t.Fatal("a byte past the snapshot was accepted")
	}
}

// TestPreChangeJournalIsRefused starts a coordinator on the state
// directory of a build that journaled with gob (testdata/gob-journal: a
// snapshot of two stations and a reservation, then register, updown,
// acct, health and cancel records). The snapshot and every record are
// refused on their format byte and counted, nothing is restored from
// them, and the coordinator still comes up. It compacts into the current
// layout at once, so the start after that is clean.
func TestPreChangeJournalIsRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "gob-journal")
	j, recovered, err := journal.Open(copyStateDir(t, fixture), journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if recovered.Snapshot == nil || len(recovered.Records) < 5 {
		t.Fatalf("fixture holds %d records and snapshot %v; want a snapshot and ≥ 5 records",
			len(recovered.Records), recovered.Snapshot != nil)
	}
	if _, err := decodeState(recovered.Snapshot); !errors.Is(err, errPersistFormat) {
		t.Fatalf("gob snapshot: err = %v, want errPersistFormat", err)
	}
	for i, b := range recovered.Records {
		if _, err := decodeRecord(b); !errors.Is(err, errPersistFormat) {
			t.Fatalf("gob record %d: err = %v, want errPersistFormat", i, err)
		}
	}

	dir := copyStateDir(t, fixture)
	cfg := Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("coordinator on a gob-era journal: %v", err)
	}
	errs, stations := c.Stats().JournalErrors, len(c.Stations())
	c.Close()
	if want := uint64(1 + len(recovered.Records)); errs != want {
		t.Fatalf("JournalErrors = %d, want %d (the snapshot and every record)", errs, want)
	}
	if stations != 0 {
		t.Fatalf("%d stations restored from a journal this build cannot read", stations)
	}
	c, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if errs := c.Stats().JournalErrors; errs != 0 {
		t.Fatalf("second start: JournalErrors = %d, want 0", errs)
	}
}

// FuzzRebuildState hands recovery an arbitrary snapshot and two
// arbitrary records. It must never panic, and every snapshot or record it
// accepts must re-encode to exactly its own bytes.
func FuzzRebuildState(f *testing.F) {
	recs := sampleRecords()
	for i := range recs {
		f.Add(encodeState(sampleState()), encodeRecord(recs[i]), encodeRecord(recs[(i+1)%len(recs)]))
	}
	j, old, err := journal.Open(copyStateDir(f, filepath.Join("testdata", "gob-journal")), journal.Config{})
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	f.Add(old.Snapshot, old.Records[0], old.Records[1])
	st := encodeState(sampleState())
	f.Add(st[:len(st)-1], []byte{}, []byte{persistFormat})
	f.Add([]byte(nil), encodeRecord(recs[2])[:9], append(encodeRecord(recs[0]), 0))

	f.Fuzz(func(t *testing.T, snapshot, a, b []byte) {
		_, skipped := rebuildState(snapshot, [][]byte{a, b}, time.Now())
		if skipped > 3 {
			t.Fatalf("skipped %d of 3 inputs", skipped)
		}
		if snapshot != nil {
			if st, err := decodeState(snapshot); err == nil && !bytes.Equal(encodeState(st), snapshot) {
				t.Fatalf("accepted snapshot re-encodes differently")
			}
		}
		for _, rec := range [][]byte{a, b} {
			if r, err := decodeRecord(rec); err == nil && !bytes.Equal(encodeRecord(r), rec) {
				t.Fatalf("accepted record re-encodes differently:\n got %x\nwant %x", encodeRecord(r), rec)
			}
		}
	})
}
