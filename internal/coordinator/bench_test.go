package coordinator

import (
	"context"
	"fmt"
	"testing"
	"time"

	"condor/internal/decision"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/updown"
)

// benchPool starts a coordinator over n registered fake stations spread
// across a fixed set of wire servers (distinct addresses, so the client
// pool holds real per-station connections without n listeners).
func benchPool(b *testing.B, n int) *Coordinator {
	b.Helper()
	const servers = 16
	addrs := make([]string, 0, servers)
	for i := 0; i < servers; i++ {
		srv := fakeStation(b, func(_ context.Context, msg any) (any, error) {
			return proto.PollReply{State: proto.StationIdle}, nil
		})
		addrs = append(addrs, srv.Addr())
	}
	coord, err := New(Config{
		PollInterval: time.Hour,
		RPCTimeout:   30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	for i := 0; i < n; i++ {
		coord.Register(fmt.Sprintf("ws%04d", i), addrs[i%len(addrs)])
	}
	return coord
}

func benchmarkCycleAt(b *testing.B, stations int) {
	coord := benchPool(b, stations)
	coord.Cycle() // warm the connection pool outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.Cycle()
	}
}

func BenchmarkCycle100(b *testing.B)  { benchmarkCycleAt(b, 100) }
func BenchmarkCycle1000(b *testing.B) { benchmarkCycleAt(b, 1000) }

// pipelineInput is the synthetic snapshot the pipeline benchmarks
// decide on: a quarter of the stations idle, a quarter owner-busy, a
// quarter running a foreign job with two waiting, and a quarter idle
// with one waiting.
func pipelineInput(stations int) (*updown.Table, []policy.StationView, policy.Config) {
	tab := updown.NewTable(updown.DefaultConfig())
	views := make([]policy.StationView, 0, stations)
	for i := 0; i < stations; i++ {
		v := policy.StationView{Name: fmt.Sprintf("ws%04d", i), DiskFree: 1 << 30}
		switch i % 4 {
		case 0:
			v.State = proto.StationIdle
		case 1:
			v.State = proto.StationOwner
		case 2:
			v.State = proto.StationClaimed
			v.ForeignOwner = fmt.Sprintf("ws%04d", (i+1)%stations)
			v.ForeignJob = v.ForeignOwner + "/1"
			v.WaitingJobs = 2
		case 3:
			v.State = proto.StationIdle
			v.WaitingJobs = 1
		}
		tab.Touch(v.Name)
		views = append(views, v)
	}
	cfg := policy.DefaultConfig()
	cfg.MaxGrantsPerCycle = 4
	return tab, views, cfg
}

// benchmarkPipelineCycleAt isolates the scheduling pipeline itself —
// predicates, ranking, placement, preemption — on a synthetic snapshot,
// with the RPC fabric of the full-cycle benchmarks above factored out.
// This is the decision path both the live coordinator and the simulator
// run once per poll cycle; it must stay allocation-lean as policies are
// added.
func benchmarkPipelineCycleAt(b *testing.B, stations int) {
	pol := policy.MustNew(policy.DefaultPolicy)
	tab, views, cfg := pipelineInput(stations)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Decide(views, tab, cfg)
	}
}

func BenchmarkPipelineCycle100(b *testing.B)  { benchmarkPipelineCycleAt(b, 100) }
func BenchmarkPipelineCycle1000(b *testing.B) { benchmarkPipelineCycleAt(b, 1000) }

// BenchmarkPipelineCycleAudited1000 is the same pipeline with a live
// decision.Builder attached — the cost of a fully audited cycle, for
// comparison against the recorder-off baseline above (which runs the
// identical code with a nil builder).
func BenchmarkPipelineCycleAudited1000(b *testing.B) {
	pol := policy.MustNew(policy.DefaultPolicy)
	tab, views, cfg := pipelineInput(1000)
	rec := decision.NewRecorder(decision.DefaultCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aud := decision.NewBuilder(uint64(i), time.Time{})
		pol.DecideAudited(views, tab, cfg, aud)
		rec.Record(aud.Done())
	}
}
