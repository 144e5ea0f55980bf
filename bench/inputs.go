package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"condor/internal/cvm"
	"condor/internal/schedd"
)

// sizes fixes every workload's operation counts for one round. Workloads
// are sized by counts, never by durations, so the same seed always does
// the same work; a run repeats identical rounds until its time is up.
type sizes struct {
	// sched-burst
	burstStations, burstHomes, burstJobs int
	// pool-scale
	scaleStations, scaleHomes, scaleCycles int
	// syscall-stream
	streamFileBytes int
	// ckpt-migrate
	migrateStations, migrateJobs, migrateVacates int
	migrateWords, migrateFolds                   int
	// A job is vacated migrateDelayMin to migrateDelayMax after it is
	// seen running; its slices (see runMigrate) must outlast the sum.
	migrateDelayMin, migrateDelayMax time.Duration
	// probeCalls is how many small frames each wire probe echoes.
	probeCalls int
	// grace is the run's one bounded wait for a silent pool.
	grace time.Duration
}

// fullSizes is what BENCHMARK.json's command runs: a round of each
// workload takes one to four seconds on two cores.
var fullSizes = sizes{
	burstStations: 23, burstHomes: 4, burstJobs: 600,
	scaleStations: 400, scaleHomes: 8, scaleCycles: 40,
	streamFileBytes: 128 << 10,
	migrateStations: 8, migrateJobs: 8, migrateVacates: 4,
	migrateWords: 128 << 10, migrateFolds: 16,
	migrateDelayMin: 5 * time.Millisecond, migrateDelayMax: 15 * time.Millisecond,
	probeCalls: 1000, grace: 10 * time.Second,
}

// smallSizes is the ~1/50 scale bench_test.go runs under `go test`.
var smallSizes = sizes{
	burstStations: 6, burstHomes: 2, burstJobs: 12,
	scaleStations: 20, scaleHomes: 2, scaleCycles: 4,
	streamFileBytes: 2 << 10,
	migrateStations: 3, migrateJobs: 2, migrateVacates: 2,
	migrateWords: 4 << 10, migrateFolds: 100,
	migrateDelayMin: 2 * time.Millisecond, migrateDelayMax: 6 * time.Millisecond,
	probeCalls: 50, grace: 5 * time.Second,
}

// hostTable gives every job a private in-memory home filesystem holding
// the workload's seeded input files, and remembers it so the job's
// output file can be checked afterwards.
type hostTable struct {
	files map[string][]byte

	mu    sync.Mutex
	hosts map[string]*cvm.MemHost
}

func newHostTable(files map[string][]byte) *hostTable {
	return &hostTable{files: files, hosts: make(map[string]*cvm.MemHost)}
}

func (t *hostTable) factory() schedd.HostFactory {
	return func(jobID, owner string) cvm.SyscallHandler {
		h := t.newHost()
		t.mu.Lock()
		t.hosts[jobID] = h
		t.mu.Unlock()
		return h
	}
}

func (t *hostTable) newHost() *cvm.MemHost {
	h := cvm.NewMemHost()
	for name, data := range t.files {
		h.SetFile(name, data)
	}
	return h
}

func (t *hostTable) host(jobID string) *cvm.MemHost {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.hosts[jobID]; h != nil {
		return h
	}
	return cvm.NewMemHost()
}

// runLocal is the reference: the job run to completion on this machine
// against the same files, as condor.RunLocal does for file-less jobs.
func runLocal(spec *jobSpec, files map[string][]byte) error {
	host := newHostTable(files).newHost()
	vm, err := cvm.New(spec.prog, host, cvm.Config{})
	if err != nil {
		return err
	}
	status, err := vm.Run(1 << 40)
	if err != nil {
		return fmt.Errorf("local run of %s: %w", spec.prog.Name, err)
	}
	if status != cvm.StatusHalted || vm.ExitCode() != 0 {
		return fmt.Errorf("local run of %s: status %s, exit %d", spec.prog.Name, status, vm.ExitCode())
	}
	spec.wantStdout = host.Stdout()
	spec.wantSteps = vm.Steps()
	if data, ok := host.File(outFile); ok {
		spec.wantFile = data
	}
	return nil
}

// seededText is n bytes of seeded "words": letters broken by spaces and
// newlines, so WordCountProgram's branches depend on the seed.
func seededText(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		switch r := rng.Intn(16); {
		case r == 0:
			out[i] = ' '
		case r == 1:
			out[i] = '\n'
		default:
			out[i] = byte('a' + rng.Intn(26))
		}
	}
	return out
}

// foldProgram is ckpt-migrate's job: fill a words-long .bss buffer from
// the checkpointed RNG xor seed (an incompressible image), then sweep it
// folds times, xor-folding every word into an accumulator that is also
// written back, and print the accumulator. Every checkpoint therefore
// carries the whole buffer, and a resume from a wrong or stale image
// prints a different number.
func foldProgram(seed int64, words, folds int) *cvm.Program {
	src := fmt.Sprintf(`
.data
seed:  .word %d
folds: .word %d
.bss
buf: .space %d
pib: .space 24
.text
start:
    MOVI r0, seed
    LD   r10, [r0]
    MOVI r0, folds
    LD   r11, [r0]
    MOVI r12, %d        ; words
    MOVI r2, buf
    MOVI r1, 0
fill:
    JGE  r1, r12, filled
    RAND r3
    XOR  r3, r3, r10
    ADD  r4, r2, r1
    ST   [r4], r3
    ADDI r1, r1, 1
    JMP  fill
filled:
    MOVI r13, 0         ; accumulator
    MOVI r5, 0          ; fold
sweep:
    JGE  r5, r11, done
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
done:
    MOVI r6, 1
    SHR  r0, r13, r6    ; printint wants a non-negative value
    CALL printint
    HALT 0
printint:
    MOVI r6, 0
    MOVI r7, 10
    MOV  r5, r0
pi_digit:
    MOD  r8, r5, r7
    ADDI r8, r8, '0'
    PUSH r8
    ADDI r6, r6, 1
    DIV  r5, r5, r7
    MOVI r9, 0
    JGT  r5, r9, pi_digit
    MOVI r5, pib
pi_pop:
    POP  r8
    ST   [r5], r8
    ADDI r5, r5, 1
    ADDI r6, r6, -1
    MOVI r9, 0
    JGT  r6, r9, pi_pop
    MOVI r8, '\n'
    ST   [r5], r8
    MOVI r9, pib
    SUB  r1, r5, r9
    ADDI r1, r1, 1
    MOVI r0, pib
    SYS  print
    RET
`, seed, folds, words, words)
	return cvm.MustAssemble(fmt.Sprintf("fold-%x", uint64(seed)), src)
}
