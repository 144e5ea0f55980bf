package web

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"condor/internal/accounting"
	"condor/internal/decision"
	"condor/internal/eventlog"
	"condor/internal/proto"
	"condor/internal/telemetry"
	"condor/internal/trace"
)

// Server is condor-web: the pool's live dashboard daemon. It polls the
// coordinator (pool table, accounting, decision history) and the
// stations (queues) on a short refresh interval, keeps sparkline
// history in bounded rings, evaluates the alert rules, and serves one
// embedded HTML page plus a JSON API and an SSE event stream. It holds
// no state a restart cannot rebuild — the coordinator stays the system
// of record, exactly as the paper's central coordinator is the only
// machine that knows the whole pool.
type Server struct {
	cfg    Config
	client *Client
	alerts *Alerts
	series *SeriesSet
	mux    *http.ServeMux

	mu         sync.RWMutex
	overview   Overview
	jobs       []JobRow
	lastFields map[string]float64
	lastOK     time.Time
	// Cycle-staleness tracking: when the coordinator's cycle counter
	// last moved, as observed by this aggregator.
	lastCycles  uint64
	lastCycleAt time.Time
	// Per-policy decide-latency baselines for delta-rate sampling.
	lastDecide map[string]decideTotals

	ln   net.Listener
	srv  *http.Server
	done chan struct{}
	wg   sync.WaitGroup
}

type decideTotals struct {
	sum   float64
	count float64
}

// Config configures a dashboard server.
type Config struct {
	// CoordinatorAddr is the coordinator's wire address (required).
	CoordinatorAddr string
	// Refresh is the aggregation interval (default 2s).
	Refresh time.Duration
	// CycleInterval is the coordinator's allocation-cycle interval; the
	// cycle_lag alert field is cycle age divided by it (default 2m, the
	// coordinator's own default).
	CycleInterval time.Duration
	// Rules are the alert rules; nil means DefaultRules.
	Rules []Rule
	// Scrapes are extra operational-listener bases (host:port of -http
	// listeners) whose /metrics pages feed the decide-latency series and
	// whose /healthz states appear on the dashboard. Typically the
	// coordinator's -http address.
	Scrapes []string
}

// historyLimit caps /api/events responses and a station's event trail.
const historyLimit = 200

// Overview is the aggregated pool snapshot served on /api/overview.
type Overview struct {
	GeneratedAt     time.Time             `json:"generatedAt"`
	CoordinatorAddr string                `json:"coordinatorAddr"`
	Coordinator     proto.CoordinatorInfo `json:"coordinator"`
	Stations        []StationView         `json:"stations"`
	// States and Healths count stations by scheduling state / health
	// grade.
	States  map[string]int `json:"states"`
	Healths map[string]int `json:"healths"`
	// Fields is every alert-rule field's current value — the same
	// numbers the rules are evaluated over, so the dashboard can show
	// "what would this rule see right now".
	Fields map[string]float64 `json:"fields"`
	Alerts []AlertStatus      `json:"alerts"`
	// Daemons is the scraped daemons' readiness (one row per Scrapes
	// entry).
	Daemons []DaemonHealth `json:"daemons,omitempty"`
	// Series is the sparkline history, oldest point first.
	Series map[string][]Point `json:"series"`
	// LastError is the most recent aggregation failure ("" when the last
	// refresh succeeded).
	LastError string `json:"lastError,omitempty"`
}

// StationView is one pool-table row as the dashboard renders it.
type StationView struct {
	Name          string    `json:"name"`
	Addr          string    `json:"addr"`
	State         string    `json:"state"`
	Health        string    `json:"health"`
	HealthSince   time.Time `json:"healthSince,omitempty"`
	HealthReason  string    `json:"healthReason,omitempty"`
	Suspicion     float64   `json:"suspicion"`
	WaitingJobs   int       `json:"waitingJobs"`
	RunningJobs   int       `json:"runningJobs"`
	ForeignJob    string    `json:"foreignJob,omitempty"`
	ScheduleIndex float64   `json:"scheduleIndex"`
	IndexHistory  []float64 `json:"indexHistory,omitempty"`
	LastPoll      time.Time `json:"lastPoll"`
}

// DaemonHealth is one scraped daemon's /healthz state.
type DaemonHealth struct {
	Base     string   `json:"base"`
	Ready    bool     `json:"ready"`
	Failures []string `json:"failures,omitempty"`
	Error    string   `json:"error,omitempty"`
}

// StationDetail is the per-station drill-down served on /api/station.
type StationDetail struct {
	Station StationView     `json:"station"`
	Jobs    []JobStatusView `json:"jobs"`
	// Events is the station's recent coordinator-side event trail —
	// grants, health transitions, flaps — oldest first.
	Events []eventlog.Event `json:"events"`
}

// JobStatusView is one job row with its home station attached.
type JobStatusView struct {
	Station string          `json:"station"`
	Job     proto.JobStatus `json:"job"`
}

// Dashboard telemetry.
var (
	mRefreshes = telemetry.NewCounter("condor_web_refresh_total",
		"Dashboard aggregation refreshes attempted.")
	mRefreshErrors = telemetry.NewCounter("condor_web_refresh_errors_total",
		"Dashboard aggregation refreshes that failed to reach the coordinator.")
)

//go:embed assets
var assets embed.FS

// NewServer builds a dashboard server; call Listen (or mount Handler on
// a listener of your own) and Start to begin aggregating.
func NewServer(cfg Config) (*Server, error) {
	if cfg.CoordinatorAddr == "" {
		return nil, fmt.Errorf("web: CoordinatorAddr required")
	}
	if cfg.Refresh <= 0 {
		cfg.Refresh = 2 * time.Second
	}
	if cfg.CycleInterval <= 0 {
		cfg.CycleInterval = 2 * time.Minute
	}
	if cfg.Rules == nil {
		rules, err := ParseRules(DefaultRules)
		if err != nil {
			return nil, err
		}
		cfg.Rules = rules
	}
	// Fail fast on rules over fields Refresh never publishes — Eval
	// evaluates absent fields as 0, so an unvalidated typo becomes an
	// alert that can never fire.
	if err := ValidateRuleFields(cfg.Rules); err != nil {
		return nil, err
	}
	// Alert transitions ride the process bus that /events streams:
	// in-process pools publish their own events onto it for free.
	s := &Server{
		cfg:        cfg,
		client:     NewClient(cfg.CoordinatorAddr),
		alerts:     NewAlerts(cfg.Rules, telemetry.Events),
		series:     NewSeriesSet(DefaultSeriesCapacity),
		lastFields: map[string]float64{},
		lastDecide: map[string]decideTotals{},
		done:       make(chan struct{}),
	}
	s.lastCycleAt = time.Now()
	s.mux = s.buildMux()
	return s, nil
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	page, err := fs.Sub(assets, "assets")
	if err != nil {
		panic(err) // embed layout is fixed at build time
	}
	mux.Handle("/", http.FileServer(http.FS(page)))
	mux.Handle("/events", telemetry.SSEHandler(telemetry.Events, 0))
	mux.HandleFunc("/api/overview", s.handleOverview)
	mux.HandleFunc("/api/station", s.handleStation)
	mux.HandleFunc("/api/jobs", s.handleJobs)
	mux.HandleFunc("/api/events", s.handleEvents)
	mux.HandleFunc("/api/decisions", s.handleDecisions)
	// The dashboard daemon's own operational surface, plus local views of
	// the shared trace recorder and accounting ledger (live when the
	// daemons share this process; the coordinator's own -http listener
	// serves the authoritative ones otherwise).
	mux.Handle("/metrics", telemetry.Default.Handler())
	mux.Handle("/traces", trace.Handler(trace.Default))
	mux.Handle("/accounting", accounting.Handler())
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Handler returns the dashboard's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start launches the aggregation loop.
func (s *Server) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.cfg.Refresh)
		defer t.Stop()
		s.refresh()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.refresh()
			}
		}
	}()
}

// Listen binds addr (port 0 picks a free one) and serves the dashboard;
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("web: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close stops the aggregation loop, the listener, and the client pool.
func (s *Server) Close() error {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	s.client.Close()
	return err
}

// Refresh runs one synchronous aggregation tick (the loop calls this on
// every interval; tests call it directly).
func (s *Server) Refresh(ctx context.Context) error {
	mRefreshes.Inc()
	now := time.Now()
	ps, err := s.client.PoolStatus(ctx)
	if err != nil {
		mRefreshErrors.Inc()
		s.mu.Lock()
		fields := copyFields(s.lastFields)
		fields["coord_unreachable"] = 1
		s.lastFields = fields
		alerts := s.alerts.Eval(now, fields)
		s.overview.GeneratedAt = now
		s.overview.Fields = fields
		s.overview.Alerts = alerts
		s.overview.LastError = err.Error()
		s.mu.Unlock()
		return err
	}

	jobs, jobsErr := s.client.Jobs(ctx, ps.Stations)
	daemons := s.probeDaemons(ctx)
	decide := s.sampleDecide(ctx)

	info := ps.Coordinator
	states := map[string]int{}
	healths := map[string]int{}
	stations := make([]StationView, 0, len(ps.Stations))
	waiting, running := 0, 0
	for _, st := range ps.Stations {
		states[st.State.String()]++
		healths[st.Health.String()]++
		waiting += st.WaitingJobs
		running += st.RunningJobs
		stations = append(stations, StationView{
			Name: st.Name, Addr: st.Addr,
			State: st.State.String(), Health: st.Health.String(),
			HealthSince: st.HealthSince, HealthReason: st.HealthReason,
			Suspicion:   st.Suspicion,
			WaitingJobs: st.WaitingJobs, RunningJobs: st.RunningJobs,
			ForeignJob:    st.ForeignJob,
			ScheduleIndex: st.ScheduleIndex, IndexHistory: st.IndexHistory,
			LastPoll: st.LastPoll,
		})
	}
	sort.Slice(stations, func(i, j int) bool { return stations[i].Name < stations[j].Name })

	s.mu.Lock()
	if info.Cycles != s.lastCycles {
		s.lastCycles = info.Cycles
		s.lastCycleAt = now
	}
	cycleAge := now.Sub(s.lastCycleAt).Seconds()

	total := len(ps.Stations)
	fields := map[string]float64{
		"stations":          float64(total),
		"idle":              float64(states[proto.StationIdle.String()]),
		"owner":             float64(states[proto.StationOwner.String()]),
		"claimed":           float64(states[proto.StationClaimed.String()]),
		"suspended":         float64(states[proto.StationSuspended.String()]),
		"healthy":           float64(healths[proto.HealthHealthy.String()]),
		"suspect":           float64(healths[proto.HealthSuspect.String()]),
		"quarantined":       float64(healths[proto.HealthQuarantined.String()]),
		"waiting":           float64(waiting),
		"running":           float64(running),
		"jobs":              float64(len(jobs)),
		"degraded":          b2f(info.Degraded),
		"cycles":            float64(info.Cycles),
		"grants":            float64(info.Grants),
		"preempts":          float64(info.Preempts),
		"journal_errors":    float64(info.Journal.Errors),
		"unready":           float64(len(info.ReadyFailures)),
		"cycle_age":         cycleAge,
		"cycle_lag":         cycleAge / s.cfg.CycleInterval.Seconds(),
		"coord_unreachable": 0,
	}
	if total > 0 {
		fields["utilization"] = fields["claimed"] / float64(total)
	}
	s.lastFields = fields
	s.lastOK = now
	alerts := s.alerts.Eval(now, fields)

	s.series.Observe("util", now, fields["utilization"])
	for _, st := range []string{"idle", "owner", "claimed", "suspended"} {
		s.series.Observe("stations."+st, now, fields[st])
	}
	for _, h := range []string{"healthy", "suspect", "quarantined"} {
		s.series.Observe("health."+h, now, fields[h])
	}
	s.series.Observe("queue.waiting", now, fields["waiting"])
	nFiring := 0.0
	for _, a := range alerts {
		if a.Firing {
			nFiring++
		}
	}
	s.series.Observe("alerts.firing", now, nFiring)
	for policy, ms := range decide {
		s.series.Observe("decide_ms."+policy, now, ms)
	}

	s.overview = Overview{
		GeneratedAt:     now,
		CoordinatorAddr: s.cfg.CoordinatorAddr,
		Coordinator:     info,
		Stations:        stations,
		States:          states,
		Healths:         healths,
		Fields:          fields,
		Alerts:          alerts,
		Daemons:         daemons,
	}
	if jobsErr != nil {
		s.overview.LastError = jobsErr.Error()
	}
	s.jobs = jobs
	s.mu.Unlock()
	return nil
}

func (s *Server) refresh() {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Refresh+rpcTimeout)
	defer cancel()
	s.Refresh(ctx) //nolint:errcheck // failure is recorded in the overview
}

// probeDaemons checks each configured scrape base's /healthz.
func (s *Server) probeDaemons(ctx context.Context) []DaemonHealth {
	if len(s.cfg.Scrapes) == 0 {
		return nil
	}
	out := make([]DaemonHealth, 0, len(s.cfg.Scrapes))
	for _, base := range s.cfg.Scrapes {
		d := DaemonHealth{Base: base}
		ready, failures, err := s.client.Healthz(ctx, base)
		if err != nil {
			d.Error = err.Error()
		} else {
			d.Ready = ready
			d.Failures = failures
		}
		out = append(out, d)
	}
	return out
}

// sampleDecide scrapes the configured bases for the policy pipeline's
// condor_policy_decide_seconds histogram and converts each policy's
// delta since the previous tick into a mean decide latency in
// milliseconds. Only policies that decided since the last tick produce
// a sample, so the series tracks live cycles rather than flatlining on
// the historical mean.
func (s *Server) sampleDecide(ctx context.Context) map[string]float64 {
	out := map[string]float64{}
	for _, base := range s.cfg.Scrapes {
		page, err := s.client.ScrapeMetrics(ctx, base)
		if err != nil {
			continue
		}
		fam := page.Family("condor_policy_decide_seconds")
		if fam == nil {
			continue
		}
		sums := map[string]float64{}
		counts := map[string]float64{}
		for _, sm := range fam.Samples {
			policy := sm.Get("policy")
			if policy == "" {
				continue
			}
			switch sm.Name {
			case "condor_policy_decide_seconds_sum":
				sums[policy] = sm.Value
			case "condor_policy_decide_seconds_count":
				counts[policy] = sm.Value
			}
		}
		s.mu.Lock()
		for policy, count := range counts {
			prev := s.lastDecide[policy]
			dc := count - prev.count
			ds := sums[policy] - prev.sum
			s.lastDecide[policy] = decideTotals{sum: sums[policy], count: count}
			if dc > 0 && ds >= 0 {
				out[policy] = ds / dc * 1000
			}
		}
		s.mu.Unlock()
	}
	return out
}

func (s *Server) handleOverview(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	ov := s.overview
	s.mu.RUnlock()
	ov.Series = s.series.Snapshot()
	writeJSON(w, ov)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	jobs := s.jobs
	s.mu.RUnlock()
	if jobs == nil {
		jobs = []JobRow{}
	}
	writeJSON(w, jobs)
}

func (s *Server) handleStation(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing ?name=", http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	var view *StationView
	for i := range s.overview.Stations {
		if s.overview.Stations[i].Name == name {
			v := s.overview.Stations[i]
			view = &v
			break
		}
	}
	s.mu.RUnlock()
	if view == nil {
		http.Error(w, "unknown station "+name, http.StatusNotFound)
		return
	}
	detail := StationDetail{Station: *view}
	ctx, cancel := context.WithTimeout(r.Context(), rpcTimeout)
	defer cancel()
	if qr, err := s.client.StationQueue(ctx, view.Addr); err == nil {
		for _, j := range qr.Jobs {
			detail.Jobs = append(detail.Jobs, JobStatusView{Station: qr.Station, Job: j})
		}
	}
	// The coordinator's event trail holds the station's grant / health /
	// flap history; filter its recent window down to this station.
	if events, err := s.client.History(ctx, 0); err == nil {
		for _, e := range events {
			if e.Station == name {
				detail.Events = append(detail.Events, e)
			}
		}
		if n := len(detail.Events); n > historyLimit {
			detail.Events = detail.Events[n-historyLimit:]
		}
	}
	writeJSON(w, detail)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit := historyLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			limit = n
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), rpcTimeout)
	defer cancel()
	events, err := s.client.History(ctx, limit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if events == nil {
		events = []eventlog.Event{}
	}
	writeJSON(w, events)
}

// handleDecisions proxies the coordinator's scheduling decision audits
// (the /decisions ring) through the dashboard's pooled wire client, so
// the page's "Decisions" drill-down needs no second origin. Filters
// mirror the coordinator's own /decisions endpoint: ?job, ?station,
// ?cycle (negative counts from the newest), ?last.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var cycle int64
	if v := q.Get("cycle"); v != "" {
		cycle, _ = strconv.ParseInt(v, 10, 64)
	}
	last := 0
	if v := q.Get("last"); v != "" {
		last, _ = strconv.Atoi(v)
	}
	ctx, cancel := context.WithTimeout(r.Context(), rpcTimeout)
	defer cancel()
	reply, err := s.client.Decisions(ctx, q.Get("job"), q.Get("station"), cycle, last)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	// Re-shape the wire reply as a decision.Page so this endpoint's JSON
	// is byte-compatible with the coordinator's own /decisions (the
	// page's JS reads the same lowercase keys from either).
	page := decision.Page{Cycles: reply.Cycles, Total: reply.Total, Dropped: reply.Dropped}
	if page.Cycles == nil {
		page.Cycles = []decision.CycleAudit{}
	}
	writeJSON(w, page)
}

// handleHealthz reports the aggregator's own readiness: it is ready
// once a refresh has succeeded recently. It deliberately does not use
// the process-global readiness registry — in an all-in-one process the
// dashboard must not vouch for (or taint) the daemons' own probes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	lastOK := s.lastOK
	lastErr := s.overview.LastError
	s.mu.RUnlock()
	stale := 5 * s.cfg.Refresh
	if lastOK.IsZero() || time.Since(lastOK) > stale {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, "not ready\n")
		reason := "no successful refresh yet"
		if lastErr != "" {
			reason = lastErr
		}
		fmt.Fprintf(w, "aggregator: %s\n", reason)
		return
	}
	fmt.Fprintf(w, "ok\nlast refresh %s ago\n", time.Since(lastOK).Round(time.Millisecond))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) //nolint:errcheck // client went away
}

func copyFields(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
