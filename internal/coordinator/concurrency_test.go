package coordinator

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/proto"
)

// TestCycleBoundsPollConcurrency proves the PollConcurrency window
// is a real ceiling: with 32 stations and a cap of 4, the station-side
// handler must never observe more than 4 polls in flight, and every
// station must still get polled.
func TestCycleBoundsPollConcurrency(t *testing.T) {
	const (
		stations = 32
		cap      = 4
	)
	var inFlight, peak atomic.Int64
	srv := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		// Hold the poll open long enough that an unbounded fan-out would
		// pile all 32 up at once.
		time.Sleep(10 * time.Millisecond)
		return proto.PollReply{State: proto.StationIdle}, nil
	})

	coord, err := New(Config{
		PollInterval:    time.Hour,
		PollConcurrency: cap,
		RPCTimeout:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < stations; i++ {
		coord.Register(fmt.Sprintf("ws%02d", i), srv.Addr())
	}

	coord.Cycle()

	if got := peak.Load(); got > cap {
		t.Fatalf("peak in-flight polls = %d, want <= %d", got, cap)
	}
	stats := coord.Stats()
	if stats.Polls != stations {
		t.Fatalf("successful polls = %d, want %d (bounding must not drop polls)", stats.Polls, stations)
	}
	if stats.PollFails != 0 {
		t.Fatalf("poll failures = %d, want 0", stats.PollFails)
	}
}

// TestPollConcurrencyDefault pins the sanitize default so nobody lowers
// it accidentally.
func TestPollConcurrencyDefault(t *testing.T) {
	cfg := Config{}
	cfg.sanitize()
	if cfg.PollConcurrency != 64 {
		t.Fatalf("default PollConcurrency = %d, want 64", cfg.PollConcurrency)
	}
}

// TestConcurrentSavesKeepNewestState: reservations, cancellations and
// cycles save from many goroutines at once, and the state a restart
// finds is the newest one — every station's last reservation holds.
func TestConcurrentSavesKeepNewestState(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), PollInterval: time.Hour, DialTimeout: time.Second, DeadAfter: 100}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const stations = 8
	for i := 0; i < stations; i++ {
		coord.Register(fmt.Sprintf("ws%d", i), "127.0.0.1:1")
	}
	var wg sync.WaitGroup
	for i := 0; i < stations; i++ {
		name := fmt.Sprintf("ws%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if _, err := coord.Reserve(name, "ws0", time.Hour); err != nil {
					t.Error(err)
				}
				coord.CancelReservation(name)
			}
			if _, err := coord.Reserve(name, "ws0", time.Hour); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.Cycle()
	}()
	wg.Wait()
	coord.Close()

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	for _, s := range restarted.Stations() {
		if s.ReservedFor != "ws0" {
			t.Fatalf("%s restored without its last reservation: %+v", s.Name, s)
		}
	}
	if n := len(restarted.Stations()); n != stations {
		t.Fatalf("restored %d stations, want %d", n, stations)
	}
}
