package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"os"
	"runtime"
	"time"

	"condor/internal/ckpt"
	"condor/internal/cvm"
	"condor/internal/decision"
	"condor/internal/journal"
	"condor/internal/machine"
	"condor/internal/policy"
	"condor/internal/proto"
	"condor/internal/ru"
	"condor/internal/updown"
	"condor/internal/wire"
)

// probeInputs is what the layer probes take from the live workload, so
// each layer is timed on the workload's own inputs.
type probeInputs struct {
	stations int
	prog     *cvm.Program
	files    map[string][]byte
	// calls is how many small frames each wire probe echoes.
	calls int
	// steps is how many instructions the program runs in all (0 = it
	// never finishes within a run).
	steps uint64
	// views is the coordinator's last picture of the pool.
	views []policy.StationView
}

// probes are direct timed calls into one layer's public functions, run
// after the traced rounds. Each fills its layer's unit costs into values
// and records a span.
func runProbes(values map[string]float64, in probeInputs, rec *recorder, outDir string) error {
	probes := []struct {
		name string
		fn   func(map[string]float64, probeInputs, string) error
	}{
		{"wire", probeWire},
		{"policy", probePolicy},
		{"journal", probeJournal},
		{"ckpt+cvm", probeImage},
		{"ru", probeRU},
	}
	for _, p := range probes {
		start := time.Now()
		if err := p.fn(values, in, outDir); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		rec.add("probe:"+p.name, "", 0, start, time.Now())
	}
	return nil
}

// timed calls fn once to warm up, then at least n times and for at
// least 20 ms, and returns the mean duration and mean heap allocations
// of one call (process-wide, so allocation in other goroutines is
// included; the probes run on a quiet process).
func timed(n int, fn func() error) (time.Duration, float64, error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for calls < n || time.Since(start) < 20*time.Millisecond {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed / time.Duration(calls), float64(after.Mallocs-before.Mallocs) / float64(calls), nil
}

// probeWire echoes the two hot small frames and one large one over a
// loopback connection: a poll (empty request, PollReply back), a 64-byte
// guest write (SyscallMsg out, SyscallReplyMsg back) and a 1 MiB vacate
// (JobVacatedMsg out, Ack back), plus the poll through a ClientPool as
// the coordinator issues it.
func probeWire(values map[string]float64, in probeInputs, _ string) error {
	pollReply := proto.PollReply{
		Name: "ws000", State: proto.StationClaimed, WaitingJobs: 3,
		ForeignJob: "ws001/17", ForeignOwnerStation: "ws001",
		DiskFreeBytes: 1 << 62, IdleStreakMillis: 1234, AvgIdleMillis: 5678,
	}
	srv, err := wire.NewServer("127.0.0.1:0", func(*wire.Peer) wire.Handler {
		return func(_ context.Context, msg any) (any, error) {
			switch msg.(type) {
			case proto.PollRequest:
				return pollReply, nil
			case proto.SyscallMsg:
				return proto.SyscallReplyMsg{Rep: cvm.SyscallReply{Ret: 64}}, nil
			default:
				return proto.Ack{}, nil
			}
		}
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	peer, err := wire.Dial(srv.Addr(), 5*time.Second, nil)
	if err != nil {
		return err
	}
	defer peer.Close()
	ctx := context.Background()
	call := func(msg any) func() error {
		return func() error { _, err := peer.Call(ctx, msg); return err }
	}
	// frame measures one request/reply pair; bytes come from the wire
	// layer's own sent-bytes counter, which sees both directions here.
	frame := func(prefix string, n int, msg any) error {
		rtt, allocs, err := timed(n, call(msg))
		if err != nil {
			return err
		}
		bytes := cWireBytesSent.Value()
		if err := call(msg)(); err != nil {
			return err
		}
		values[prefix+"rtt_us"] = us(rtt)
		values[prefix+"allocs"] = allocs
		values[prefix+"bytes"] = float64(cWireBytesSent.Value() - bytes)
		return nil
	}
	if err := frame("wire.frame_", in.calls, proto.PollRequest{}); err != nil {
		return err
	}
	write := proto.SyscallMsg{JobID: "ws000/1", Req: cvm.SyscallRequest{
		Num: cvm.SysWrite, Args: [4]int64{3, 4096, 64}, Data: make([]byte, 64), Name: outFile,
	}}
	if err := frame("wire.syscall_frame_", in.calls, write); err != nil {
		return err
	}
	big := make([]byte, 1<<20)
	if _, err := rand.Read(big); err != nil {
		return err
	}
	bigRTT, _, err := timed(10, call(proto.JobVacatedMsg{JobID: "ws000/1", Checkpoint: big}))
	if err != nil {
		return err
	}
	values["wire.big_frame_ms_per_mb"] = ms(bigRTT)

	pool := wire.NewClientPool(wire.PoolConfig{})
	defer pool.Close()
	poolCall := func() error { _, err := pool.Call(ctx, srv.Addr(), proto.PollRequest{}); return err }
	poolRTT, _, err := timed(in.calls, poolCall)
	if err != nil {
		return err
	}
	values["wire.pool_call_rtt_us"] = us(poolRTT)
	return nil
}

// probePolicy times one audited decision and one round of index updates
// over views shaped like the workload's pool.
func probePolicy(values map[string]float64, in probeInputs, _ string) error {
	table := updown.NewTable(updown.DefaultConfig())
	for _, v := range in.views {
		table.Touch(v.Name)
	}
	update, _, _ := timed(20, func() error {
		for _, v := range in.views {
			table.Update(v.Name, v.HeldMachines, v.WaitingJobs > 0)
		}
		return nil
	})
	values["updown.update_us"] = ratio(us(update), float64(len(in.views)))
	pol := policy.MustNew("")
	cfg := policy.Config{MaxGrantsPerCycle: 8, Placement: policy.PlaceFirstFit}
	decide, allocs, _ := timed(50, func() error {
		pol.DecideAudited(in.views, table, cfg, decision.NewBuilder(1, time.Now()))
		return nil
	})
	values["policy.decide_us"] = us(decide)
	values["policy.decide_allocs"] = allocs
	return nil
}

// probeJournal times appends at the journal's default fsync, with a
// record the size of the workload's up-down batch (about 16 bytes of
// name and index per station).
func probeJournal(values map[string]float64, in probeInputs, outDir string) error {
	dir, err := os.MkdirTemp(outDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir, journal.Config{})
	if err != nil {
		return err
	}
	defer j.Close()
	rec := make([]byte, 64+16*in.stations)
	appendTime, _, err := timed(40, func() error { return j.Append(rec) })
	if err != nil {
		return err
	}
	values["journal.append_us"] = us(appendTime)
	return nil
}

// workloadImage runs the workload's program part-way on this machine and
// returns the VM, so checkpoint probes see a mid-run image (for the fold
// job: the filled, incompressible buffer).
func workloadImage(in probeInputs) (*cvm.VM, error) {
	vm, err := cvm.New(in.prog, newHostTable(in.files).newHost(), cvm.Config{})
	if err != nil {
		return nil, err
	}
	// Half-way through, the fold job's buffer is full and every
	// workload's program is still running.
	steps := in.steps / 2
	if steps == 0 {
		steps = 1_000_000
	}
	if _, err := vm.Run(steps); err != nil {
		return nil, err
	}
	return vm, nil
}

// probeImage times the checkpoint path on the workload's own image —
// snapshot, encode with compression, decode, store put and get — and
// the VM's instruction rate on the workload's program.
func probeImage(values map[string]float64, in probeInputs, _ string) error {
	vm, err := workloadImage(in)
	if err != nil {
		return err
	}
	var img *cvm.Image
	snap, _, _ := timed(20, func() error { img = vm.Snapshot(); return nil })
	values["cvm.snapshot_us"] = us(snap)
	meta := ckpt.Meta{JobID: "probe/1", Owner: "probe", ProgramName: in.prog.Name}
	var blob []byte
	enc, _, err := timed(5, func() error {
		blob, err = ckpt.EncodeBytesWith(meta, img, ckpt.Options{Compress: true})
		return err
	})
	if err != nil {
		return err
	}
	dec, _, err := timed(5, func() error { _, _, err := ckpt.DecodeBytes(blob); return err })
	if err != nil {
		return err
	}
	rawMB := float64(img.SizeBytes()) / (1 << 20)
	values["ckpt.encode_ms_per_mb"] = ratio(ms(enc), rawMB)
	values["ckpt.decode_ms_per_mb"] = ratio(ms(dec), rawMB)
	values["ckpt.encode_ms"] = ms(enc)
	values["ckpt.decode_ms"] = ms(dec)
	values["ckpt.blob_bytes"] = float64(len(blob))
	values["ckpt.compress_ratio"] = ratio(float64(img.SizeBytes()), float64(len(blob)))
	store := ckpt.NewMemStore(0, true)
	put, _, err := timed(20, func() error { return store.Put(meta, img) })
	if err != nil {
		return err
	}
	get, _, err := timed(20, func() error { _, _, err := store.Get(meta.JobID); return err })
	if err != nil {
		return err
	}
	values["ckpt.store_put_us"] = us(put)
	values["ckpt.store_get_us"] = us(get)

	rate, err := instructionRate(in)
	if err != nil {
		return err
	}
	values["cvm.minstr_per_s"] = rate
	return nil
}

// hostTimer times a syscall handler, so the time a local run spends in
// its host can be taken out of the VM's instruction rate.
type hostTimer struct {
	inner cvm.SyscallHandler
	spent time.Duration
}

func (h *hostTimer) Syscall(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
	start := time.Now()
	rep, err := h.inner.Syscall(req)
	h.spent += time.Since(start)
	return rep, err
}

// instructionRate runs the workload's program from the start, again and
// again until 5M instructions or 100 ms have passed, and returns million
// guest instructions per second of VM time (host time excluded).
func instructionRate(in probeInputs) (float64, error) {
	var steps uint64
	var vmTime time.Duration
	for start := time.Now(); steps < 5_000_000 && time.Since(start) < 100*time.Millisecond; {
		host := &hostTimer{inner: newHostTable(in.files).newHost()}
		vm, err := cvm.New(in.prog, host, cvm.Config{})
		if err != nil {
			return 0, err
		}
		runStart := time.Now()
		if _, err := vm.Run(5_000_000); err != nil {
			return 0, err
		}
		vmTime += time.Since(runStart) - host.spent
		steps += vm.Steps()
	}
	return ratio(float64(steps)/1e6, vmTime.Seconds()), nil
}

// probeEvents is the shadow-side sink of the RU probe.
type probeEvents struct {
	done chan proto.JobDoneMsg
}

func (e *probeEvents) JobDone(msg proto.JobDoneMsg) {
	select {
	case e.done <- msg:
	default:
	}
}
func (e *probeEvents) JobVacated(proto.JobVacatedMsg)         {}
func (e *probeEvents) JobCheckpointed(proto.JobCheckpointMsg) {}
func (e *probeEvents) JobSuspended(string)                    {}
func (e *probeEvents) JobResumed(string)                      {}
func (e *probeEvents) JobLost(string, error)                  {}

// probeRU stands up a real ru.Starter behind a wire server and places
// jobs on it with ru.Place, as schedd.PlaceNext does: the handshake with
// the workload's own checkpoint blob, then one file-copy job whose
// forwarded 64-byte reads and writes give the isolated syscall round
// trip (from the executor's own RTT histogram).
func probeRU(values map[string]float64, in probeInputs, _ string) error {
	starter, err := ru.NewStarter(ru.StarterConfig{
		Name: "probe", Monitor: machine.NewScriptedMonitor(false), ScanInterval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer starter.Close()
	srv, err := wire.NewServer("127.0.0.1:0", starter.Handler)
	if err != nil {
		return err
	}
	defer srv.Close()
	place := func(jobID string, blob []byte, host cvm.SyscallHandler, events ru.Events) (*ru.Shadow, error) {
		return ru.Place(context.Background(), srv.Addr(), proto.PlaceRequest{
			JobID: jobID, Owner: "probe", HomeHost: "probe-home", Checkpoint: blob,
		}, host, events, ru.PlaceConfig{})
	}
	idle := func() error {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			if _, _, busy := starter.Running(); !busy {
				return nil
			}
		}
		return fmt.Errorf("probe starter still claimed")
	}

	// Handshake: dial + PlaceRequest carrying the blob + decode + restore.
	vm, err := workloadImage(in)
	if err != nil {
		return err
	}
	blob, err := ckpt.EncodeBytesWith(ckpt.Meta{JobID: "probe-home/1"}, vm.Snapshot(), ckpt.Options{Compress: true})
	if err != nil {
		return err
	}
	// A short job may run to completion between handshakes; nobody waits
	// for these, so the sink has no channel to fill.
	var handshakes []float64
	for i := 0; i < 8; i++ {
		start := time.Now()
		shadow, err := place("probe-home/1", blob, newHostTable(in.files).newHost(), &probeEvents{})
		if err != nil {
			return err
		}
		handshakes = append(handshakes, ms(time.Since(start)))
		shadow.Close()
		if err := idle(); err != nil {
			return err
		}
	}
	values["ru.place_handshake_ms"] = median(handshakes)

	// Syscall round trip: 512 reads and 512 writes of 64 bytes.
	files := map[string][]byte{inFile: make([]byte, 32<<10)}
	copyBlob, err := ru.InitialCheckpoint(ckpt.Meta{JobID: "probe-home/2"}, cvm.FileCopyProgram(inFile, outFile), 0)
	if err != nil {
		return err
	}
	events := &probeEvents{done: make(chan proto.JobDoneMsg, 1)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sum, count := hSyscallSeconds.Sum(), hSyscallSeconds.Count()
	shadow, err := place("probe-home/2", copyBlob, newHostTable(files).newHost(), events)
	if err != nil {
		return err
	}
	select {
	case <-events.done:
	case <-time.After(30 * time.Second):
		shadow.Close()
		return fmt.Errorf("probe copy job did not finish")
	}
	runtime.ReadMemStats(&after)
	calls := float64(hSyscallSeconds.Count() - count)
	values["ru.syscall_rtt_us"] = ratio((hSyscallSeconds.Sum()-sum)*1e6, calls)
	values["ru.syscall_allocs"] = ratio(float64(after.Mallocs-before.Mallocs), calls)
	shadow.Close()
	return nil
}
