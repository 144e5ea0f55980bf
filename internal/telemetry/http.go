package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

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
// ready is the daemon's own readiness check, nil for none: while it
// returns an error, /healthz answers 503 with the error as its body (the
// coordinator passes Coordinator.Ready: its cycles are turning over and
// its journal is writable).
func Serve(addr string, reg *Registry, ready func() error) (*Server, error) {
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
		if ready != nil {
			if err := ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready\n%v\n", err)
				return
			}
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
