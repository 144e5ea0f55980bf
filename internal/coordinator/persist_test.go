package coordinator

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"condor/internal/accounting"
)

func sampleState() persistState {
	return persistState{
		Stations: []persistStation{{Name: "ws1", Addr: "127.0.0.1:1", Index: 1.75},
			{Name: "ws2", Addr: "127.0.0.1:2", Health: 3, Reason: "flap", SinceUnixMilli: 7}},
		Reservations: map[string]persistReservation{"ws2": {Holder: "ws1", UntilUnixMilli: 4102444800000}},
		Alloc:        map[string]accounting.AllocTotals{"ws1": {Grants: 1, CapacityNanos: 5}},
		PolicyName:   "updown",
		Incarnation:  4,
	}
}

// TestJournalCodecRoundTrip: a full state decodes to what was encoded,
// map order does not change the bytes, and a trailing byte is refused.
func TestJournalCodecRoundTrip(t *testing.T) {
	st := sampleState()
	b := encodeState(nil, st)
	got, err := decodeState(b)
	if err != nil || !reflect.DeepEqual(got, st) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, st)
	}
	for i := 0; i < 10; i++ { // map iteration order varies run to run
		if again := encodeState(nil, st); !bytes.Equal(again, b) {
			t.Fatal("a state encodes two ways")
		}
	}
	if _, err := decodeState(append(b, 0)); err == nil {
		t.Fatal("a byte past the state was accepted")
	}
}

// TestIncarnationCounts: every start of a state directory bumps the
// incarnation and saves it at once, so a crash loop still counts.
func TestIncarnationCounts(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), PollInterval: time.Hour, DialTimeout: time.Second}
	for want := uint64(1); want <= 3; want++ {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Stats().Incarnation
		c.Close()
		if got != want {
			t.Fatalf("incarnation = %d, want %d", got, want)
		}
	}
}

// TestPreChangeJournalIsRefused starts a coordinator on the state
// directory of a build that kept a log and snapshots
// (testdata/gob-journal: incarnation, journal.1.log, snapshot.1.snap).
// Those files are never read: the coordinator comes up empty, counts
// one journal error per file on every start while they exist, and
// leaves them on disk.
func TestPreChangeJournalIsRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "gob-journal")
	dir := copyStateDir(t, fixture)
	cfg := Config{StateDir: dir, PollInterval: time.Hour, DialTimeout: time.Second}
	for start := 1; start <= 2; start++ {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("start %d on a log-era directory: %v", start, err)
		}
		st, stations := c.Stats(), len(c.Stations())
		c.Close()
		if st.JournalErrors != 3 || stations != 0 || st.Incarnation != uint64(start) {
			t.Fatalf("start %d: %d journal errors, %d stations, incarnation %d; want 3, 0, %d",
				start, st.JournalErrors, stations, st.Incarnation, start)
		}
	}
	for _, name := range []string{"incarnation", "journal.1.log", "snapshot.1.snap"} {
		want, _ := os.ReadFile(filepath.Join(fixture, name))
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("log-era file %s changed or went: %v", name, err)
		}
	}
}

// FuzzRebuildState hands recovery an arbitrary state record. It must
// never panic, and every record it accepts must re-encode to exactly its
// own bytes.
func FuzzRebuildState(f *testing.F) {
	st := encodeState(nil, sampleState())
	empty := encodeState(nil, persistState{})
	gob, err := os.ReadFile(filepath.Join("testdata", "gob-journal", "snapshot.1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		st, empty, nil, {}, {persistFormat}, gob, gob[20:],
		st[:len(st)-1], st[:len(st)/2], append(append([]byte(nil), st...), 0),
		encodeState(nil, persistState{Stations: []persistStation{{Name: "ws2"}, {Name: "ws1"}}}),
		append([]byte{persistFormat, 0xfe}, empty[2:]...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := rebuildState(b, time.Now())
		if b != nil && err == nil {
			if decoded, _ := decodeState(b); !bytes.Equal(encodeState(nil, decoded), b) {
				t.Fatalf("accepted state re-encodes differently:\n got %x\nwant %x", encodeState(nil, decoded), b)
			}
		}
		if err != nil && !reflect.DeepEqual(st, persistState{}) {
			t.Fatalf("refused state rebuilt as %+v", st)
		}
	})
}
