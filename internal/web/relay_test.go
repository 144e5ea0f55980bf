package web

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"condor/internal/telemetry"
)

// startUpstream serves an /events SSE stream for bus on ln, exactly as a
// daemon's -http listener would.
func startUpstream(ln net.Listener, bus *telemetry.Bus) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/events", telemetry.SSEHandler(bus, 0))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func nextEvent(t *testing.T, sub *telemetry.Subscriber) telemetry.BusEvent {
	t.Helper()
	cancel := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(cancel) })
	defer timer.Stop()
	ev, ok := sub.Next(cancel)
	if !ok {
		t.Fatal("timed out waiting for a relayed event")
	}
	return ev
}

// TestRelayReconnect kills the upstream SSE server mid-stream, restarts
// it on the same port, and asserts the relay resumes after its backoff
// and that local subscribers see every event exactly once with locally
// reassigned, strictly increasing sequence numbers.
func TestRelayReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	up1 := telemetry.NewBus()
	srv1 := startUpstream(ln, up1)

	local := telemetry.NewBus()
	sub := local.Subscribe(0)
	defer sub.Close()

	relay := NewRelay(addr, local)
	relay.Start()
	defer relay.Close()

	// The SSE handler subscribes at request time, so wait for the relay's
	// stream to attach before publishing the first batch.
	waitFor(t, "relay to connect to the first upstream", func() bool {
		return up1.Subscribers() > 0
	})
	for i := 1; i <= 3; i++ {
		up1.Publish(telemetry.BusEvent{
			Source: "coord", Kind: "grant", Detail: fmt.Sprintf("batch1-%d", i),
		})
	}
	var got []telemetry.BusEvent
	for i := 0; i < 3; i++ {
		got = append(got, nextEvent(t, sub))
	}

	// Kill the upstream mid-stream: closes the listener and the open
	// stream connection.
	killedAt := time.Now()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same port with a fresh bus (an upstream restart
	// loses its in-memory bus exactly like this).
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	up2 := telemetry.NewBus()
	srv2 := startUpstream(ln2, up2)
	defer srv2.Close()

	waitFor(t, "relay to reconnect after restart", func() bool {
		return up2.Subscribers() > 0
	})
	// The first batch delivered events, so the retry delay was reset to
	// its 500ms floor; reconnection before that means no backoff at all.
	if since := time.Since(killedAt); since < 400*time.Millisecond {
		t.Errorf("relay reconnected %v after the kill, faster than the 500ms backoff floor", since)
	}
	for i := 1; i <= 3; i++ {
		up2.Publish(telemetry.BusEvent{
			Source: "coord", Kind: "grant", Detail: fmt.Sprintf("batch2-%d", i),
		})
	}
	for i := 0; i < 3; i++ {
		got = append(got, nextEvent(t, sub))
	}

	// Every event exactly once, in order, across the restart.
	want := []string{"batch1-1", "batch1-2", "batch1-3", "batch2-1", "batch2-2", "batch2-3"}
	if len(got) != len(want) {
		t.Fatalf("relayed %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Detail != want[i] {
			t.Errorf("event %d: detail %q, want %q", i, ev.Detail, want[i])
		}
	}
	// The local bus reassigns sequence numbers: they must be unique and
	// strictly increasing even though both upstream buses started at 1.
	seen := map[uint64]bool{}
	for i, ev := range got {
		if seen[ev.Seq] {
			t.Errorf("duplicate local Seq %d at event %d", ev.Seq, i)
		}
		seen[ev.Seq] = true
		if i > 0 && ev.Seq <= got[i-1].Seq {
			t.Errorf("Seq not increasing: event %d has %d after %d", i, ev.Seq, got[i-1].Seq)
		}
	}
	if n := sub.Dropped(); n != 0 {
		t.Errorf("local subscriber dropped %d events", n)
	}
}

// TestRelaySchedule: the relay waits 500ms after a stream that carried
// events, and after failures 1s doubling to a 15s cap that the fifth
// failure reaches and no wait passes.
func TestRelaySchedule(t *testing.T) {
	if got := relayDelay(0); got != 500*time.Millisecond {
		t.Errorf("delay after a stream with events = %v, want 500ms", got)
	}
	s := time.Second
	want := []time.Duration{s, 2 * s, 4 * s, 8 * s, 15 * s, 15 * s, 15 * s, 15 * s}
	for i, w := range want {
		if got := relayDelay(i + 1); got != w {
			t.Errorf("delay after failure %d = %v, want %v", i+1, got, w)
		}
	}
}
