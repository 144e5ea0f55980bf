package condor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/telemetry"
	"condor/internal/web"
	"condor/internal/wire"
)

// sseEvent is one decoded frame from a /events stream.
type sseEvent = telemetry.BusEvent

// readSSE consumes one /events stream, forwarding decoded events until
// stop returns true, the context ends, or the stream breaks.
func readSSE(ctx context.Context, url string, stop func(sseEvent) bool) ([]sseEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("content-type %q", ct)
	}
	var events []sseEvent
	sc := bufio.NewScanner(resp.Body)
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue
			}
			var ev sseEvent
			if err := json.Unmarshal([]byte(strings.Join(data, "\n")), &ev); err != nil {
				return events, fmt.Errorf("bad SSE payload %q: %w", data, err)
			}
			data = data[:0]
			events = append(events, ev)
			if stop(ev) {
				return events, nil
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
	}
	return events, fmt.Errorf("stream ended early: %v", sc.Err())
}

// TestSSEFanout is the dashboard's acceptance test: a live three-daemon
// pool, 50 concurrent SSE subscribers, and every one of them observing
// the same grant and the same health-transition events — while the
// publishers (coordinator cycle loop, health machine) never block on a
// consumer.
func TestSSEFanout(t *testing.T) {
	p, err := NewPool(PoolConfig{Stations: 3, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	srv, err := web.NewServer(web.Config{
		CoordinatorAddr: p.CoordinatorAddr(),
		Refresh:         100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Attach all 50 subscribers before any interesting event happens, so
	// each must observe the identical grant and health transitions.
	const subscribers = 50
	type result struct {
		firstGrant  uint64 // seq of the first grant event seen
		ghostHealth uint64 // seq of the first suspect/quarantine for "ghost"
		err         error
	}
	results := make([]result, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r result
			_, r.err = readSSE(ctx, "http://"+addr+"/events", func(ev sseEvent) bool {
				if ev.Kind == "grant" && r.firstGrant == 0 {
					r.firstGrant = ev.Seq
				}
				if (ev.Kind == "suspect" || ev.Kind == "quarantine") &&
					ev.Station == "ghost" && r.ghostHealth == 0 {
					r.ghostHealth = ev.Seq
				}
				return r.firstGrant != 0 && r.ghostHealth != 0
			})
			results[i] = r
		}(i)
	}
	// The SSE handler flushes its headers (and a comment frame) on
	// connect, so the subscriber count is observable: wait until all 50
	// rings are attached before generating events.
	deadline := time.Now().Add(10 * time.Second)
	for telemetry.Events.Subscribers() < subscribers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d subscribers attached", telemetry.Events.Subscribers(), subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A grant: run one job through the pool.
	jobID, err := p.Submit("ws0", "alice", SumProgram(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(jobID, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// A health transition: register a station that refuses every poll.
	peer, err := wire.Dial(p.CoordinatorAddr(), 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Call(ctx, proto.RegisterRequest{Name: "ghost", Addr: "127.0.0.1:1"}); err != nil {
		peer.Close()
		t.Fatal(err)
	}
	peer.Close()

	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("subscriber %d: %v", i, r.err)
		}
		if r.firstGrant == 0 || r.ghostHealth == 0 {
			t.Fatalf("subscriber %d: grant seq %d, ghost health seq %d — missing events",
				i, r.firstGrant, r.ghostHealth)
		}
		// Everyone attached before the first grant, so everyone must have
		// observed the *same* first grant and the same ghost transition.
		if r.firstGrant != results[0].firstGrant || r.ghostHealth != results[0].ghostHealth {
			t.Fatalf("subscriber %d saw grant=%d ghost=%d, subscriber 0 saw grant=%d ghost=%d",
				i, r.firstGrant, r.ghostHealth, results[0].firstGrant, results[0].ghostHealth)
		}
	}
}

// TestDashboardSmoke boots a coordinator + two stations + condor-web in
// one process and walks the dashboard's whole surface: the embedded
// page serves, the JSON API aggregates the pool, a grant streams out of
// /events, alerts evaluate, and the daemon's own /metrics and /healthz
// answer.
func TestDashboardSmoke(t *testing.T) {
	p, err := NewPool(PoolConfig{Stations: 2, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	srv, err := web.NewServer(web.Config{
		CoordinatorAddr: p.CoordinatorAddr(),
		Refresh:         50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	base := "http://" + addr

	// The embedded page must serve (and be the dashboard, not a 404).
	page := httpGet(t, base+"/")
	for _, want := range []string{"condor-web", "/api/overview", "text/event-stream"} {
		if !strings.Contains(page, want) {
			t.Errorf("embedded page missing %q", want)
		}
	}

	// One grant must stream out of /events while a job runs.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	grant := make(chan sseEvent, 1)
	go func() {
		events, err := readSSE(ctx, base+"/events", func(ev sseEvent) bool {
			return ev.Kind == "grant"
		})
		if err == nil && len(events) > 0 {
			grant <- events[len(events)-1]
		}
	}()
	// Give the subscriber a moment to attach before generating the grant.
	deadline := time.Now().Add(5 * time.Second)
	for telemetry.Events.Subscribers() < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	jobID, err := p.Submit("ws0", "smoke", SumProgram(10_000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(jobID, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-grant:
		if ev.Source != "coordinator" {
			t.Errorf("grant event source = %q, want coordinator", ev.Source)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("no grant event on /events within 15s")
	}

	// The aggregation loop must produce a full overview. Wait for a
	// snapshot taken after the first allocation cycle — the very first
	// refresh can race the pool's startup and see registered stations
	// but zero cycles.
	var ov web.Overview
	waitFor(t, 10*time.Second, func() bool {
		body := httpGet(t, base+"/api/overview")
		if err := json.Unmarshal([]byte(body), &ov); err != nil {
			t.Fatalf("overview JSON: %v\n%s", err, body)
		}
		return len(ov.Stations) == 2 && ov.Fields["stations"] == 2 &&
			ov.Coordinator.Cycles > 0
	})
	if len(ov.Alerts) == 0 {
		t.Error("overview has no alert rules (defaults should apply)")
	}
	for _, a := range ov.Alerts {
		if a.Firing {
			t.Errorf("alert %s firing on a healthy pool (value %g)", a.Rule, a.Value)
		}
	}

	// The decide-latency chart fills from the coordinator's pool status
	// alone: nothing is scraped.
	waitFor(t, 10*time.Second, func() bool {
		var ov web.Overview
		if err := json.Unmarshal([]byte(httpGet(t, base+"/api/overview")), &ov); err != nil {
			t.Fatal(err)
		}
		return len(ov.Series["decide_ms.updown"]) > 0
	})

	// The jobs API answers (the job may have retired already).
	httpGet(t, base+"/api/jobs")
	// The events API proxies the coordinator's history.
	if body := httpGet(t, base+"/api/events"); !strings.Contains(body, "grant") {
		t.Errorf("/api/events missing grant history: %s", body)
	}
	// Per-station drill-down.
	if body := httpGet(t, base+"/api/station?name=ws0"); !strings.Contains(body, "ws0") {
		t.Errorf("/api/station missing station: %s", body)
	}

	// The daemon's own operational surface.
	if body := httpGet(t, base+"/metrics"); !strings.Contains(body, "condor_web_refresh_total") ||
		!strings.Contains(body, "condor_web_alerts_firing") {
		t.Error("dashboard /metrics missing condor_web_* series")
	}
	waitFor(t, 5*time.Second, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return resp.StatusCode == http.StatusOK
	})
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
