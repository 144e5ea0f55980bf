package condor

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"condor/internal/decision"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/telemetry"
	"condor/internal/wire"
)

// TestDecisionAuditEndToEnd is the "why isn't my job running" story over
// a live pool: every station is too disk-short for the policy's
// min-disk predicate, a submitted job therefore starves, and the
// decision audit must say exactly why — over the wire the way
// condor-explain and the dashboard read it, with and without a -last
// bound, and in agreement with the per-predicate deny counters on
// /metrics.
func TestDecisionAuditEndToEnd(t *testing.T) {
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.Default, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Each station's checkpoint store holds 4 KiB; the policy demands a
	// mebibyte free. The candidate phase rejects every machine, every
	// cycle, with the min-disk predicate.
	const minDisk = 1 << 20
	p, err := NewPool(PoolConfig{
		Stations:      3,
		StationPrefix: "dryws",
		DiskBytes:     4096,
		Policy:        policy.Config{MinDiskBytes: minDisk},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	jobID, err := p.Submit("dryws0", "alice", SumProgram(1000))
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot both surfaces before driving cycles, so the assertions
	// below are deltas — immune to cycles the pool's own loop ran and to
	// denials other tests left in the process-wide registry.
	before := p.Decisions("", "dryws0", 0, 0)
	var sinceCycle uint64
	for _, c := range before.Cycles {
		if c.Cycle > sinceCycle {
			sinceCycle = c.Cycle
		}
	}
	denied0 := deniedCounter(t, srv.Addr())

	const cycles = 5
	for i := 0; i < cycles; i++ {
		p.Cycle()
	}

	status, err := p.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != JobIdle {
		t.Fatalf("job state = %v, want still waiting (every station is disk-short)", status.State)
	}

	// The coordinator's ring, filtered to our pool's stations.
	page := p.Decisions("", "dryws0", 0, 0)
	fresh := freshCycles(page.Cycles, sinceCycle)
	if len(fresh) != cycles {
		t.Fatalf("audited %d fresh cycles, want %d", len(fresh), cycles)
	}

	// Every fresh cycle must carry a candidate-phase (requester-blind)
	// min-disk rejection for every station, with the threshold and
	// observed sides of the failed comparison spelled out.
	rejections := 0
	for _, c := range fresh {
		perCycle := 0
		for _, r := range c.Rejections {
			if r.Requester != "" {
				continue // placement-phase, not counted by the deny counters
			}
			if r.Predicate != "min-disk" {
				t.Fatalf("cycle %d: station %s rejected by %q, want min-disk", c.Cycle, r.Station, r.Predicate)
			}
			if !strings.Contains(r.Threshold, strconv.Itoa(minDisk)) {
				t.Errorf("cycle %d: threshold %q does not state the %d-byte bound", c.Cycle, r.Threshold, minDisk)
			}
			if !strings.Contains(r.Observed, "bytes free") {
				t.Errorf("cycle %d: observed %q does not state the free space", c.Cycle, r.Observed)
			}
			perCycle++
		}
		if perCycle != 3 {
			t.Errorf("cycle %d: %d candidate rejections, want one per station (3)", c.Cycle, perCycle)
		}
		rejections += perCycle
		if len(c.Grants) != 0 {
			t.Errorf("cycle %d: grants %+v despite the disk predicate", c.Cycle, c.Grants)
		}
	}

	// The audits must agree with the /metrics deny counters: the
	// candidate-phase rejections audited above are exactly what
	// condor_policy_predicate_denied_total{pred="updown/min-disk"} grew by.
	denied1 := deniedCounter(t, srv.Addr())
	if delta := denied1 - denied0; delta != float64(rejections) {
		t.Errorf("deny counter grew %.0f, audits recorded %d candidate min-disk rejections", delta, rejections)
	}

	// condor-explain -job reads the same audits over the wire protocol:
	// a DecisionsRequest against the coordinator, rendered per requester.
	peer, err := wire.Dial(p.CoordinatorAddr(), 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reply, err := peer.Call(ctx, proto.DecisionsRequest{Station: "dryws0"})
	if err != nil {
		t.Fatal(err)
	}
	dr, ok := reply.(proto.DecisionsReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	wireFresh := freshCycles(dr.Cycles, sinceCycle)
	if len(wireFresh) != cycles {
		t.Fatalf("wire returned %d fresh cycles, want %d", len(wireFresh), cycles)
	}
	pred, n, ok := decision.TopRejection(wireFresh, "dryws0")
	if !ok || pred != "min-disk" {
		t.Fatalf("TopRejection = %q (%d, %v), want the min-disk predicate", pred, n, ok)
	}
	latest := &wireFresh[len(wireFresh)-1]
	explain := decision.RenderRequester(latest, "dryws0")
	for _, want := range []string{"min-disk", "disk >= " + strconv.Itoa(minDisk), "bytes free", "unserved"} {
		if !strings.Contains(explain, want) {
			t.Errorf("condor-explain view missing %q:\n%s", want, explain)
		}
	}

	// And the query condor-web's /api/decisions forwards: the same
	// ring, bounded to the newest cycles.
	reply, err = peer.Call(ctx, proto.DecisionsRequest{Station: "dryws0", Last: cycles})
	if err != nil {
		t.Fatal(err)
	}
	lastPage, ok := reply.(proto.DecisionsReply)
	if !ok {
		t.Fatalf("unexpected reply %T", reply)
	}
	lastFresh := freshCycles(lastPage.Cycles, sinceCycle)
	if len(lastFresh) != cycles {
		t.Fatalf("Last=%d returned %d fresh cycles, want %d", cycles, len(lastFresh), cycles)
	}
	if pred, _, ok := decision.TopRejection(lastFresh, "dryws0"); !ok || pred != "min-disk" {
		t.Fatalf("Last=%d TopRejection = %q %v, want min-disk", cycles, pred, ok)
	}
}

// TestPoolsKeepTheirOwnDecisions runs two pools in one process: each
// coordinator records into its own ring, so one pool's cycles never
// show in the other's decision audits.
func TestPoolsKeepTheirOwnDecisions(t *testing.T) {
	a, err := NewPool(PoolConfig{Stations: 1, StationPrefix: "owna"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewPool(PoolConfig{Stations: 1, StationPrefix: "ownb"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Cycle()
	if got := a.Decisions("", "", 0, 0).Cycles; len(got) == 0 {
		t.Fatal("pool a audited no cycle")
	}
	if got := b.Decisions("", "", 0, 0).Cycles; len(got) != 0 {
		t.Fatalf("pool b holds %d cycles it never ran, first %d", len(got), got[0].Cycle)
	}
}

// freshCycles keeps audits newer than the given cycle number — the ones
// this test's own Cycle() calls produced.
func freshCycles(cycles []decision.CycleAudit, since uint64) []decision.CycleAudit {
	var out []decision.CycleAudit
	for _, c := range cycles {
		if c.Cycle > since {
			out = append(out, c)
		}
	}
	return out
}

// deniedCounter scrapes the updown/min-disk deny counter; a series not
// yet exposed reads as 0.
func deniedCounter(t *testing.T, addr string) float64 {
	t.Helper()
	body := scrapeMetrics(t, addr)
	const series = `condor_policy_predicate_denied_total{pred="updown/min-disk"}`
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
		if err != nil {
			t.Fatalf("unparseable deny counter line %q: %v", line, err)
		}
		return v
	}
	return 0
}
