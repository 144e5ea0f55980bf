package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Readiness checks turn /healthz from a liveness ping into a readiness
// probe: a daemon registers a check describing a condition under which
// it must stop looking healthy (the coordinator registers "poll cycles
// are still running and the journal is writable"), and any failing check
// makes every Serve listener answer 503. Deregistration on daemon close
// keeps the registry scoped to live components.
var (
	readyMu     sync.Mutex
	readyChecks = map[string]func() error{}
)

// RegisterReadiness installs a named readiness check evaluated on every
// /healthz request. check returns nil when ready, an error describing
// why not otherwise. Re-registering a name replaces the check.
func RegisterReadiness(name string, check func() error) {
	readyMu.Lock()
	defer readyMu.Unlock()
	readyChecks[name] = check
}

// UnregisterReadiness removes a named check (a closed daemon must not
// keep the process unready).
func UnregisterReadiness(name string) {
	readyMu.Lock()
	defer readyMu.Unlock()
	delete(readyChecks, name)
}

// ReadinessFailures evaluates every registered readiness check and
// returns "name: error" lines, sorted for deterministic output (empty
// when all ready). /healthz serves these in its 503 body; the
// coordinator also ships them in CoordinatorInfo so condor-status and
// the dashboard can show *why* a daemon is unready without a second
// scrape.
func ReadinessFailures() []string { return readinessFailures() }

// readinessFailures evaluates all checks and returns "name: error"
// lines, sorted for deterministic output (empty when all ready).
func readinessFailures() []string {
	readyMu.Lock()
	names := make([]string, 0, len(readyChecks))
	checks := make([]func() error, 0, len(readyChecks))
	for name, check := range readyChecks {
		names = append(names, name)
		checks = append(checks, check)
	}
	readyMu.Unlock()
	var failures []string
	for i, check := range checks {
		if err := check(); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", names[i], err))
		}
	}
	sort.Strings(failures)
	return failures
}

// Handler returns an http.Handler serving the registry's exposition page
// (mount it at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Text())
	})
}

// Server is the daemons' operational side listener. It routes exactly
// what HTTP clients use: /metrics in Prometheus text format for
// Prometheus, /healthz for probes, /events for browsers, and the
// net/http/pprof surface under /debug/pprof/. Every other fact a daemon
// holds is read over the wire protocol (internal/proto). The listener
// rides apart from the wire so scraping and profiling never contend
// with RPC traffic.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	started time.Time
}

// Serve starts the operational HTTP listener on addr (e.g.
// "127.0.0.1:9100"; port 0 picks a free one). reg is usually Default.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, started: time.Now()}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	// The live event stream (see bus.go / sse.go): every daemon with an
	// operational listener also streams its bus at /events.
	mux.Handle("/events", SSEHandler(Events, 0))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if failures := readinessFailures(); len(failures) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, "not ready\n")
			for _, f := range failures {
				fmt.Fprintln(w, f)
			}
			return
		}
		fmt.Fprintf(w, "ok\nuptime %s\ngoroutines %d\n",
			time.Since(s.started).Round(time.Second), runtime.NumGoroutine())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }
