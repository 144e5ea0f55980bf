package web

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"condor/internal/telemetry"
)

// Relay bridges a remote daemon's /events SSE stream onto a local bus,
// so a condor-web running in its own process still shows the
// coordinator's and stations' live events. Each relayed event keeps its
// original source, timestamp and trace id; only the bus sequence number
// is reassigned locally. The relay reconnects with capped exponential
// backoff and never errors out permanently — an upstream restart is an
// expected event, not a failure.
type Relay struct {
	base   string
	bus    *telemetry.Bus
	client *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	mConns *telemetry.Counter
	mEvs   *telemetry.Counter
}

// Relay telemetry, by upstream base.
var (
	mRelayConnects = telemetry.NewCounterVec("condor_web_relay_connects_total",
		"Upstream /events stream (re)connections, by upstream.", "upstream")
	mRelayEvents = telemetry.NewCounterVec("condor_web_relay_events_total",
		"Events relayed from upstream /events streams, by upstream.", "upstream")
)

// NewRelay creates a relay from the daemon at base (a host:port or URL
// of its -http listener) onto bus.
func NewRelay(base string, bus *telemetry.Bus) *Relay {
	return &Relay{
		base: base,
		bus:  bus,
		// No overall client timeout: the stream is meant to stay open.
		// Header/dial budgets still bound a dead upstream.
		client: &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: 10 * time.Second,
		}},
		mConns: mRelayConnects.With(base),
		mEvs:   mRelayEvents.With(base),
	}
}

// Start launches the relay loop.
func (r *Relay) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		backoff := 500 * time.Millisecond
		const maxBackoff = 15 * time.Second
		for ctx.Err() == nil {
			if r.stream(ctx) {
				backoff = 500 * time.Millisecond // had events; restart eagerly
			} else if backoff < maxBackoff {
				backoff *= 2
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
		}
	}()
}

// Close stops the relay and waits for its loop to exit.
func (r *Relay) Close() {
	if r.cancel != nil {
		r.cancel()
	}
	r.wg.Wait()
}

// stream opens one connection and relays until it breaks; reports
// whether any event arrived (the backoff reset signal).
func (r *Relay) stream(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, httpURL(r.base, "/events"), nil)
	if err != nil {
		return false
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	r.mConns.Inc()

	got := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Frame boundary: dispatch accumulated data lines.
			if len(data) > 0 {
				var ev telemetry.BusEvent
				if json.Unmarshal([]byte(strings.Join(data, "\n")), &ev) == nil {
					ev.Seq = 0 // local bus assigns its own sequence
					r.bus.Publish(ev)
					r.mEvs.Inc()
					got = true
				}
				data = data[:0]
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:, event:, retry:, and ":" keepalive comments — the payload
			// JSON already carries everything the bus needs.
		}
	}
	return got
}

// httpURL normalizes "host:port" or "http://host:port" plus a path.
func httpURL(base, path string) string {
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/") + path
}
