package condor

// The root package's benchmarks time the paper's §3.1 costs on the real
// daemons: a coordinator cycle, a forwarded system call, a placement,
// checkpoint encode and decode, and guest execution. The paper's tables,
// figures and ablations come from condor-sim, whose outputs
// cmd/condor-sim/testdata pins.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"condor/internal/ckpt"
	"condor/internal/coordinator"
	"condor/internal/cvm"
	"condor/internal/machine"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/schedd"
	"condor/internal/wire"
)

// --- §3.1 overheads on the real daemons ---------------------------------

// BenchmarkOverheadCoordinatorPoll measures one full poll-decide-act
// cycle over a live pool of stations — the coordinator cost the paper
// bounds below 1% of a workstation ("a coordinator can manage as many as
// 100 workstations"), at its 2-minute cadence.
func BenchmarkOverheadCoordinatorPoll(b *testing.B) {
	for _, n := range []int{5, 23} {
		b.Run(fmt.Sprintf("stations-%d", n), func(b *testing.B) {
			timeCycles(b, overheadPool(b, n, 0), 2*time.Minute)
		})
	}
}

// BenchmarkOverheadStationPoll measures a poll of one station with 50
// queued jobs, against the station's 30 s scan: the local scheduler work
// the paper also bounds below 1%. The timed cycle is the coordinator's
// whole cycle, so both daemons and the poll RPC are in it.
func BenchmarkOverheadStationPoll(b *testing.B) {
	timeCycles(b, overheadPool(b, 1, 50), 30*time.Second)
}

// overheadPool registers stations, each with jobs queued spin jobs, with
// a new coordinator. Every interval is an hour, so only the benchmark's
// own cycles run.
func overheadPool(b *testing.B, stations, jobs int) *coordinator.Coordinator {
	coord, err := coordinator.New(coordinator.Config{PollInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	for i := 0; i < stations; i++ {
		st, err := schedd.New(schedd.Config{
			Name:    fmt.Sprintf("b%02d", i),
			Monitor: machine.NewScriptedMonitor(false),
			Starter: ru.StarterConfig{ScanInterval: time.Hour},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(st.Close)
		for j := 0; j < jobs; j++ {
			if _, err := st.Submit("u", cvm.SpinProgram(int64(j+1)), 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Register(coord.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	return coord
}

// timeCycles times b.N cycles of coord and reports one cycle's share of
// a machine that spends it once per interval.
func timeCycles(b *testing.B, coord *coordinator.Coordinator, interval time.Duration) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.Cycle()
	}
	b.StopTimer()
	perCycle := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(100*float64(perCycle)/float64(interval), "pct-of-machine")
}

// BenchmarkSyscallRoundTrip measures a remote system call through the
// full RU path: executor side → wire → shadow handler → wire back. The
// paper measured 10 ms per remote call on a VAXstation II and 20× less
// locally; the shape to preserve is remote ≫ local.
func BenchmarkSyscallRoundTrip(b *testing.B) {
	b.Run("remote-wire", func(b *testing.B) {
		srv, err := newSyscallServer()
		if err != nil {
			b.Fatal(err)
		}
		defer srv.close()
		req := cvm.SyscallRequest{Num: cvm.SysPrint, Data: bytes.Repeat([]byte("x"), 64)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.call(req); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perCall := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(perCall.Nanoseconds())/1000, "us-per-syscall")
	})
	b.Run("local-baseline", func(b *testing.B) {
		host := cvm.NewMemHost()
		req := cvm.SyscallRequest{Num: cvm.SysPrint, Data: bytes.Repeat([]byte("x"), 64)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := host.Syscall(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlaceSequential is a placement's fixed cost through the full
// RU path: one home places SpinProgram(1) jobs on one starter, one after
// another, and waits for each JobDone. The link the first placement
// dials carries every later one, so a return to a dial (and fresh gob
// streams) per placement fails here as allocs growth.
func BenchmarkPlaceSequential(b *testing.B) {
	starter, err := ru.NewStarter(ru.StarterConfig{
		Name: "bench-exec", Monitor: machine.NewScriptedMonitor(false), ScanInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer starter.Close()
	srv, err := wire.NewServer("127.0.0.1:0", starter.Handler)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	blob, err := ru.InitialCheckpoint(ckpt.Meta{JobID: "bench/1", Owner: "bench"}, cvm.SpinProgram(1), 0)
	if err != nil {
		b.Fatal(err)
	}
	req := proto.PlaceRequest{JobID: "bench/1", Owner: "bench", HomeHost: "bench-home", Checkpoint: blob}
	host := cvm.NewMemHost()
	events := doneEvents(make(chan struct{}, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ru.Place(context.Background(), srv.Addr(), req, host, events, ru.PlaceConfig{}); err != nil {
			b.Fatal(err)
		}
		<-events
	}
}

// doneEvents signals each JobDone and ignores every other shadow event.
type doneEvents chan struct{}

func (e doneEvents) JobDone(proto.JobDoneMsg)             { e <- struct{}{} }
func (doneEvents) JobVacated(proto.JobVacatedMsg)         {}
func (doneEvents) JobCheckpointed(proto.JobCheckpointMsg) {}
func (doneEvents) JobSuspended(string)                    {}
func (doneEvents) JobResumed(string)                      {}
func (doneEvents) JobLost(string, error)                  {}

// BenchmarkCheckpointPerMB measures checkpoint encode+decode throughput
// — the paper's 5 s/MB placement/checkpoint cost on 1987 hardware.
func BenchmarkCheckpointPerMB(b *testing.B) {
	// A program with ≈1 MiB of static state (128Ki words).
	img := newVM(b, cvm.MustAssemble("big", ".bss\nbuf: .space 131072\n.text\nstart:\n HALT 0\n")).Snapshot()
	meta := ckpt.Meta{JobID: "bench/1"}
	blob, err := ckpt.EncodeBytes(meta, img)
	if err != nil {
		b.Fatal(err)
	}
	mb := float64(len(blob)) / (1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, meta, img, ckpt.Options{})
	}
	b.StopTimer()
	perMB := b.Elapsed().Seconds() / float64(b.N) / mb
	b.ReportMetric(perMB*1000, "ms-per-MB")
}

// BenchmarkCheckpointSmallCompressed is the sched-burst shape: encode
// (compressed) and decode of a fresh SpinProgram(1000) image, where the
// fixed cost of a call, not the bytes, is the whole price. A per-call
// flate.NewWriter shows up here as allocs/op growth.
func BenchmarkCheckpointSmallCompressed(b *testing.B) {
	img := newVM(b, cvm.SpinProgram(1000)).Snapshot()
	meta := ckpt.Meta{JobID: "bench/2", Owner: "bench", ProgramName: "spin"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTrip(b, meta, img, ckpt.Options{Compress: true})
	}
}

// BenchmarkCheckpointIncompressible is the ckpt-migrate shape: encode
// with Compress and decode a 1 MiB image of random words, which deflate
// cannot shrink, so the blob stays plain. What it costs is the attempt
// (given up on after its probe) and the codec's long-word paths.
func BenchmarkCheckpointIncompressible(b *testing.B) {
	img := newVM(b, cvm.MustAssemble("noise", ".bss\nbuf: .space 131072\n.text\nstart:\n HALT 0\n")).Snapshot()
	r := rand.New(rand.NewSource(1))
	for i := range img.Mem {
		img.Mem[i] = r.Int63()
	}
	meta := ckpt.Meta{JobID: "bench/3"}
	// One P, so the pooled deflate writer is always in the P-local slot it
	// was put in: a Get on another P misses, and the refill (16
	// allocations) would make allocs/op jitter.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := ckpt.Options{Compress: true}
	// The set-up above (the VM's memory and the image, about 3 MB) and a
	// first round, which refills the deflate writer pool the collector
	// emptied before this run, stay off the clock: counted, they cost a
	// run 3.4 MB and 16 allocations over however many rounds it makes,
	// and allocs/op read 11 or 12 by b.N.
	roundTrip(b, meta, img, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip(b, meta, img, opts)
	}
}

// roundTrip encodes img under opts and decodes the blob.
func roundTrip(b *testing.B, meta ckpt.Meta, img *cvm.Image, opts ckpt.Options) {
	blob, err := ckpt.EncodeBytesWith(meta, img, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := ckpt.DecodeBytes(blob); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVMFold measures guest instruction throughput on ckpt-migrate's
// fold loop: LD, XOR, ADD and ST over a 1 MiB buffer, swept forever.
// BenchmarkVMExecution's spin loop never touches memory.
func BenchmarkVMFold(b *testing.B) {
	prog := cvm.MustAssemble("fold", `
.bss
buf: .space 131072
.text
start:
    MOVI r12, 131072
    MOVI r2, buf
    MOVI r13, 0
    MOVI r5, 0
sweep:
    MOVI r1, 0
fold:
    JGE  r1, r12, swept
    ADD  r4, r2, r1
    LD   r3, [r4]
    XOR  r13, r13, r3
    ADD  r13, r13, r5
    ST   [r4], r13
    ADDI r1, r1, 1
    JMP  fold
swept:
    ADDI r5, r5, 1
    JMP  sweep
`)
	timeInstructions(b, newVM(b, prog))
}

// BenchmarkVMExecution measures guest instruction throughput.
func BenchmarkVMExecution(b *testing.B) {
	timeInstructions(b, newVM(b, cvm.SpinProgram(1<<30)))
}

// newVM loads prog on an in-memory host.
func newVM(b *testing.B, prog *cvm.Program) *cvm.VM {
	vm, err := cvm.New(prog, cvm.NewMemHost(), cvm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return vm
}

// timeInstructions runs vm for 100,000 instructions per iteration and
// reports the guest's instruction rate.
func timeInstructions(b *testing.B, vm *cvm.VM) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(100_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*100_000/b.Elapsed().Seconds()/1e6, "Minstr-per-s")
}

// syscallServer is a minimal shadow: a wire server executing guest
// system calls against a local in-memory host, dialled by a pure client
// peer — exactly the transport a remote executor uses.
type syscallServer struct {
	host *cvm.MemHost
	srv  *wire.Server
	peer *wire.Peer
}

func newSyscallServer() (*syscallServer, error) {
	s := &syscallServer{host: cvm.NewMemHost()}
	srv, err := wire.NewServer("127.0.0.1:0", func(p *wire.Peer) wire.Handler {
		return func(_ context.Context, msg any) (any, error) {
			m, ok := msg.(proto.SyscallMsg)
			if !ok {
				return nil, fmt.Errorf("unexpected %T", msg)
			}
			rep, err := s.host.Syscall(m.Req)
			if err != nil {
				return nil, err
			}
			return proto.SyscallReplyMsg{Rep: rep}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	peer, err := wire.Dial(srv.Addr(), time.Second, nil)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.peer = peer
	return s, nil
}

func (s *syscallServer) close() {
	s.peer.Close()
	s.srv.Close()
}

func (s *syscallServer) call(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
	reply, err := s.peer.Call(context.Background(), proto.SyscallMsg{JobID: "bench", Req: req})
	if err != nil {
		return cvm.SyscallReply{}, err
	}
	rep, ok := reply.(proto.SyscallReplyMsg)
	if !ok {
		return cvm.SyscallReply{}, fmt.Errorf("unexpected reply %T", reply)
	}
	return rep.Rep, nil
}
