package condor

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condor/internal/proto"
	"condor/internal/trace"
	"condor/internal/wire"
)

// traceRuns numbers the runs of TestTraceEndToEndWithMigration in this
// process, so each run (-count) names its stations afresh.
var traceRuns atomic.Int32

// TestTraceEndToEndWithMigration reconstructs one job's complete span
// tree from a TracesRequest, the way condor-history -waterfall reads it:
// submitted on one station, granted by
// the coordinator, placed and run remotely, evicted when that owner
// returns (checkpoint + vacate), resumed on a second station, and run
// to completion — with every span sharing a single trace ID and the
// parent links forming the expected tree.
func TestTraceEndToEndWithMigration(t *testing.T) {
	// A distinct station prefix keeps this pool's job IDs from matching
	// traces recorded by other tests, or by an earlier run of this one,
	// against the process-global recorder.
	prefix := fmt.Sprintf("tr%d-", traceRuns.Add(1))
	home := prefix + "0"
	p, err := NewPool(PoolConfig{
		Stations:      3,
		StationPrefix: prefix,
		Fast:          true,
		SliceDelay:    200 * time.Microsecond,
		StepsPerSlice: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	jobID, err := p.Submit(home, "alice", SumProgram(5_000_000))
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first placement, then bring that owner back to force
	// checkpoint → vacate → resume elsewhere.
	var firstHost string
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := p.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			firstHost = st.ExecHost
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := p.SetOwnerActive(firstHost, true); err != nil {
		t.Fatal(err)
	}
	status, err := p.Wait(jobID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobCompleted {
		t.Fatalf("status = %+v", status)
	}
	if status.ExecHost == firstHost {
		t.Fatalf("job finished on %s where the owner is active", firstHost)
	}

	// Spans are finished asynchronously relative to Wait (the second exec
	// span closes after the done RPC returns to the execution side, and
	// its children are on the page before it), so ask again until the
	// tree is complete: every name present, both exec spans closed, and
	// every parent on the page.
	want := []string{"submit", "grant", "place", "exec", "syscall", "shadow-syscall", "checkpoint", "vacate", "complete"}
	var page trace.Page
	deadline = time.Now().Add(10 * time.Second)
	for {
		page = fetchTraces(t, p.CoordinatorAddr(), jobID)
		if treeComplete(page, want) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !treeComplete(page, want) {
		t.Fatalf("span tree incomplete; want names %v, two exec spans and every parent, got:\n%s", want, spanDump(page))
	}

	// One trace ID across every span of the job.
	traceID := page.Spans[0].TraceID
	byID := map[string]trace.SpanJSON{}
	byName := map[string][]trace.SpanJSON{}
	for _, s := range page.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %s/%s has trace %s, want single trace %s\n%s",
				s.Name, s.SpanID, s.TraceID, traceID, spanDump(page))
		}
		byID[s.SpanID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}

	// Tree shape: submit is the root; grant and both places hang off it;
	// each exec hangs off a place; syscall/checkpoint/vacate/complete all
	// hang off an exec; shadow-syscall mirrors a syscall on the home side.
	if n := len(byName["submit"]); n != 1 {
		t.Fatalf("submit spans = %d, want 1\n%s", n, spanDump(page))
	}
	root := byName["submit"][0]
	if root.Parent != "" {
		t.Fatalf("submit span has parent %s, want root", root.Parent)
	}
	if root.Station != home || root.Job != jobID {
		t.Fatalf("submit span = %+v, want station %s job %s", root, home, jobID)
	}
	parentName := func(s trace.SpanJSON) string { return byID[s.Parent].Name }
	for _, g := range byName["grant"] {
		if g.Parent != root.SpanID {
			t.Errorf("grant span parent = %q (%s), want submit", g.Parent, parentName(g))
		}
		if _, ok := g.Attrs["incarnation"]; !ok {
			t.Errorf("grant span missing incarnation attr: %+v", g)
		}
		if g.Attrs["requester"] != home {
			t.Errorf("grant span requester = %q, want %s", g.Attrs["requester"], home)
		}
	}
	if n := len(byName["place"]); n < 2 {
		t.Fatalf("place spans = %d, want ≥ 2 (migration re-places)\n%s", n, spanDump(page))
	}
	for _, s := range byName["place"] {
		if s.Parent != root.SpanID {
			t.Errorf("place span parent = %s (%s), want submit", s.Parent, parentName(s))
		}
	}
	execStations := map[string]bool{}
	for _, s := range byName["exec"] {
		if parentName(s) != "place" {
			t.Errorf("exec span parent = %s (%s), want a place span", s.Parent, parentName(s))
		}
		execStations[s.Station] = true
	}
	if len(execStations) < 2 {
		t.Errorf("exec spans ran on stations %v, want ≥ 2 distinct (cross-station migration)", execStations)
	}
	for _, name := range []string{"syscall", "checkpoint", "vacate"} {
		for _, s := range byName[name] {
			if parentName(s) != "exec" {
				t.Errorf("%s span parent = %s (%s), want an exec span", name, s.Parent, parentName(s))
			}
		}
	}
	for _, s := range byName["shadow-syscall"] {
		if parentName(s) != "syscall" {
			t.Errorf("shadow-syscall parent = %s (%s), want a syscall span", s.Parent, parentName(s))
		}
		if s.Station != "" && s.Station != home {
			t.Errorf("shadow-syscall on station %q, want home side", s.Station)
		}
	}
	for _, s := range byName["complete"] {
		if parentName(s) != "exec" {
			t.Errorf("complete span parent = %s (%s), want an exec span", s.Parent, parentName(s))
		}
	}

	// The eventlog is stitched to the same trace.
	events, err := p.History(home, jobID, 0)
	if err != nil {
		t.Fatal(err)
	}
	stitched := 0
	for _, e := range events {
		if e.TraceID == traceID {
			stitched++
		}
	}
	if stitched == 0 {
		t.Errorf("no %s events carry trace %s; events: %v", home, traceID, events)
	}

	// The waterfall renderer accepts the real page and leads with the
	// submit root.
	wf := trace.RenderWaterfall(page)
	if !strings.Contains(wf, "trace "+traceID) || !strings.Contains(wf, "submit@"+home) {
		t.Errorf("waterfall missing header or root:\n%s", wf)
	}
}

// fetchTraces asks the daemon at addr for the job's traces.
func fetchTraces(t *testing.T, addr, jobID string) trace.Page {
	t.Helper()
	peer, err := wire.Dial(addr, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.TracesRequest{JobID: jobID})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := reply.(proto.TracesReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	return tr.Page
}

// treeComplete reports whether a migrated job's page holds every name in
// names, at least two exec spans, and the parent of every span but the
// root.
func treeComplete(p trace.Page, names []string) bool {
	have := map[string]int{}
	ids := map[string]bool{}
	for _, s := range p.Spans {
		have[s.Name]++
		ids[s.SpanID] = true
	}
	for _, n := range names {
		if have[n] == 0 {
			return false
		}
	}
	if have["exec"] < 2 {
		return false
	}
	for _, s := range p.Spans {
		if s.Parent != "" && !ids[s.Parent] {
			return false
		}
	}
	return true
}

func spanDump(p trace.Page) string {
	var b strings.Builder
	for _, s := range p.Spans {
		fmt.Fprintf(&b, "  %s parent=%s name=%s station=%s job=%s\n",
			s.SpanID, s.Parent, s.Name, s.Station, s.Job)
	}
	return b.String()
}
