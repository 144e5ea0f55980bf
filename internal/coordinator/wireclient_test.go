package coordinator

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/wire"
)

// --- config sanitize: the RPC bound follows the dial timeout -----------

func TestSanitizeRPCTimeoutDefault(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"zero config", Config{}, 15 * time.Second},
		{"dial timeout set", Config{DialTimeout: time.Second}, 11 * time.Second},
		{"rpc timeout set", Config{DialTimeout: time.Second, RPCTimeout: 3 * time.Second}, 3 * time.Second},
	} {
		cfg := tc.cfg
		cfg.sanitize()
		if cfg.RPCTimeout != tc.want {
			t.Errorf("%s: RPCTimeout = %v, want %v (DialTimeout %v + 10s unless set)",
				tc.name, cfg.RPCTimeout, tc.want, cfg.DialTimeout)
		}
	}
}

// --- Cycle vs. concurrent re-registration ------------------------------

// fakeStation answers polls on the wire like a schedd would, via a
// caller-supplied handler.
func fakeStation(t testing.TB, handle func(_ context.Context, msg any) (any, error)) *wire.Server {
	t.Helper()
	srv, err := wire.NewServer("127.0.0.1:0", func(pe *wire.Peer) wire.Handler {
		return handle
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestReRegistrationDuringPollSurvivesStaleFailure(t *testing.T) {
	// Regression: a station re-registers (possibly at a new address)
	// while a poll of its previous incarnation is still in flight. When
	// that stale poll fails, the coordinator must not unregister the
	// fresh registration — the failure belongs to the old address.
	polled := make(chan struct{}, 1)
	release := make(chan struct{})
	old := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		select {
		case polled <- struct{}{}:
		default:
		}
		<-release
		return nil, errors.New("station restarting")
	})
	fresh := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		return proto.PollReply{Name: "ws", State: proto.StationIdle}, nil
	})

	coord, err := New(Config{
		PollInterval: time.Hour,
		DeadAfter:    1, // one stale failure used to be enough to unregister
		RPCTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("ws", old.Addr())

	done := make(chan struct{})
	go func() {
		coord.Cycle()
		close(done)
	}()
	<-polled                           // the old incarnation is mid-poll
	coord.Register("ws", fresh.Addr()) // station comes back at a new address
	close(release)                     // now the stale poll fails
	<-done

	infos := coord.Stations()
	if len(infos) != 1 || infos[0].Name != "ws" || infos[0].Addr != fresh.Addr() {
		t.Fatalf("stations = %+v, want ws registered at the fresh address", infos)
	}
}

func TestReRegistrationDuringPollIgnoresStaleSuccess(t *testing.T) {
	// The mirror image: the stale poll *succeeds* (slowly) after the
	// station re-registered elsewhere. Its reply describes the previous
	// incarnation and must not overwrite the fresh registration's state.
	polled := make(chan struct{}, 1)
	release := make(chan struct{})
	old := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		select {
		case polled <- struct{}{}:
		default:
		}
		<-release
		return proto.PollReply{Name: "ws", State: proto.StationClaimed,
			ForeignJob: "ghost", ForeignOwnerStation: "nobody"}, nil
	})
	fresh := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		return proto.PollReply{Name: "ws", State: proto.StationIdle}, nil
	})

	coord, err := New(Config{PollInterval: time.Hour, RPCTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("ws", old.Addr())

	done := make(chan struct{})
	go func() {
		coord.Cycle()
		close(done)
	}()
	<-polled
	coord.Register("ws", fresh.Addr())
	close(release)
	<-done

	infos := coord.Stations()
	if len(infos) != 1 {
		t.Fatalf("stations = %+v", infos)
	}
	if infos[0].State == proto.StationClaimed || infos[0].ForeignJob == "ghost" {
		t.Fatalf("stale poll reply overwrote the fresh registration: %+v", infos[0])
	}
}

// --- fault injection: a wedged station must not hang the cycle ---------

func TestCycleBoundedWithBlackHoledStation(t *testing.T) {
	// A station that accepts TCP but never reads nor replies. The cycle
	// must complete within the RPC deadline, not block forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var heldMu sync.Mutex
	var held []net.Conn
	defer func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, conn) // hold open, never read
			heldMu.Unlock()
		}
	}()

	healthy := fakeStation(t, func(_ context.Context, msg any) (any, error) {
		return proto.PollReply{Name: "ok", State: proto.StationIdle}, nil
	})

	const rpcTimeout = 300 * time.Millisecond
	coord, err := New(Config{
		PollInterval: time.Hour,
		RPCTimeout:   rpcTimeout,
		DeadAfter:    100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Register("hole", ln.Addr().String())
	coord.Register("ok", healthy.Addr())

	start := time.Now()
	coord.Cycle()
	elapsed := time.Since(start)
	// Budget: the RPC deadline plus retry backoff slack, far below "hangs".
	if elapsed > 10*rpcTimeout {
		t.Fatalf("Cycle took %v with a black-holed station (RPCTimeout %v)", elapsed, rpcTimeout)
	}
	stats := coord.Stats()
	if stats.PollFails == 0 {
		t.Fatalf("stats = %+v, want the black-holed poll counted as failed", stats)
	}
	if stats.Polls == 0 {
		t.Fatalf("stats = %+v, want the healthy station still polled", stats)
	}
}

// --- pooling: steady state is ≤1 dial per station ----------------------

func TestCyclesReuseStationConnections(t *testing.T) {
	const stations, cycles = 3, 5
	coord, err := New(Config{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < stations; i++ {
		name := fmt.Sprintf("ws%d", i)
		srv := fakeStation(t, func(_ context.Context, msg any) (any, error) {
			return proto.PollReply{Name: name, State: proto.StationOwner}, nil
		})
		coord.Register(name, srv.Addr())
	}
	for i := 0; i < cycles; i++ {
		coord.Cycle()
	}
	stats := coord.Stats()
	if stats.Dials != stations {
		t.Fatalf("stats = %+v, want exactly one dial per station over %d cycles", stats, cycles)
	}
	if want := uint64(stations * (cycles - 1)); stats.Reuses != want {
		t.Fatalf("stats = %+v, want %d reuses", stats, want)
	}
}

// --- benchmark: steady-state cycles over pooled connections -----------

func BenchmarkCoordinatorCycle(b *testing.B) {
	const stations = 8
	coord, err := New(Config{PollInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < stations; i++ {
		name := fmt.Sprintf("ws%d", i)
		srv := fakeStation(b, func(_ context.Context, msg any) (any, error) {
			return proto.PollReply{Name: name, State: proto.StationOwner}, nil
		})
		coord.Register(name, srv.Addr())
	}
	coord.Cycle() // warm the pool so the loop measures steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.Cycle()
	}
	b.StopTimer()
	stats := coord.Stats()
	b.ReportMetric(float64(stats.Dials)/stations, "dials/station")
	if stats.Dials > stations {
		b.Fatalf("stats = %+v, want ≤1 dial per station in steady state", stats)
	}
}
