package ckpt

import (
	"errors"
	"fmt"
	"testing"

	"condor/internal/codec"
	"condor/internal/cvm"
)

// faultCases is one program per kind of guest fault, and where each
// stops: the steps retired (the faulting instruction counts), the fault's
// PC, opcode and reason. The values were recorded from the interpreter
// before it became one register-resident loop.
var faultCases = []struct {
	name, src string
	steps     uint64
	pc        int64
	op        cvm.Opcode
	reason    string
}{
	{"pc off the end", ".text\nstart:\n NOP\n", 1, 1, cvm.OpNop, "pc 1 outside text [0,1)"},
	{"load", ".data\nx: .word 1\n.text\nstart:\n MOVI r1, 999\n LD r0, [r1]\n HALT 0\n",
		2, 1, cvm.OpLd, "load address 999 outside static [0,1)"},
	{"store", ".data\nx: .word 1\n.text\nstart:\n MOVI r1, -5\n ST [r1+2], r1\n HALT 0\n",
		2, 1, cvm.OpSt, "store address -3 outside static [0,1)"},
	{"push", ".text\nstart:\n MOVI r0, 1\nloop:\n PUSH r0\n JMP loop\n",
		2*faultStack + 2, 1, cvm.OpPush, "stack overflow (capacity 8 words)"},
	{"pop", ".text\nstart:\n MOVI r0, 1\n POP r0\n HALT 0\n", 2, 1, cvm.OpPop, "stack underflow"},
	{"div", ".text\nstart:\n MOVI r1, 10\n DIV r0, r1, r2\n HALT 0\n", 2, 1, cvm.OpDiv, "division by zero"},
	{"mod", ".text\nstart:\n MOVI r1, 10\n MOD r0, r1, r2\n HALT 0\n", 2, 1, cvm.OpMod, "modulo by zero"},
	{"call", ".text\nstart:\n CALL start\n", faultStack + 1, 0, cvm.OpCall, "stack overflow on call"},
	{"ret underflow", ".text\nstart:\n NOP\n RET\n", 2, 1, cvm.OpRet, "stack underflow on return"},
	{"ret target", ".text\nstart:\n MOVI r0, 99\n PUSH r0\n RET\n", 3, 2, cvm.OpRet, "return to 99 outside text"},
	{"name length", ".text\nstart:\n MOVI r1, 5000\n SYS open\n HALT 0\n", 2, 1, cvm.OpSys, "string length 5000 invalid"},
	{"name", ".text\nstart:\n MOVI r0, 3\n MOVI r1, 2\n SYS open\n HALT 0\n",
		3, 2, cvm.OpSys, "string [3,5) outside static memory"},
	{"read", ".data\nname: .str \"f\"\n.text\nstart:\n MOVI r0, name\n MOVI r1, 1\n MOVI r2, 1\n SYS open\n" +
		" MOVI r1, -1\n MOVI r2, 4\n SYS read\n HALT 0\n", 7, 6, cvm.OpSys, "read buffer [-1,3) outside static memory"},
	{"print", ".data\nx: .word 1\n.text\nstart:\n MOVI r0, 0\n MOVI r1, 2\n SYS print\n HALT 0\n",
		3, 2, cvm.OpSys, "write buffer [0,2) outside static memory"},
}

// faultStack is the stack capacity every run here gets.
const faultStack = 8

// overflowSrc's print buffer ends past MaxInt64: checked as addr+n, the
// end wrapped negative and the copy panicked.
const overflowSrc = ".text\nstart:\n MOVI r0, 9223372036854775806\n MOVI r1, 8\n SYS print\n HALT 0\n"

// printSrc makes one syscall, which runSliced's host can fail once.
const printSrc = ".data\nmsg: .str \"hi\"\n.text\nstart:\n MOVI r0, msg\n MOVI r1, 2\n SYS print\n HALT 0\n"

var errShadowDown = errors.New("shadow connection lost")

// flakyHost is a MemHost whose failAt-th syscall (from 1; 0 never) fails
// on the host side, as a broken shadow connection would: undelivered, so
// the VM retries it.
type flakyHost struct {
	*cvm.MemHost
	calls, failAt int
}

func (h *flakyHost) Syscall(req cvm.SyscallRequest) (cvm.SyscallReply, error) {
	if h.calls++; h.calls == h.failAt {
		return cvm.SyscallReply{}, errShadowDown
	}
	return h.MemHost.Syscall(req)
}

func newHost(failAt int) *flakyHost {
	h := &flakyHost{MemHost: cvm.NewMemHost(), failAt: failAt}
	h.SetFile("f", []byte("0123456789"))
	return h
}

// runStraight runs prog on one VM until budget steps are retired or it
// stops, retrying after a host error as a resumed job would.
func runStraight(t *testing.T, prog *cvm.Program, budget uint64, failAt int) (*cvm.VM, *flakyHost) {
	t.Helper()
	host := newHost(failAt)
	v, err := cvm.New(prog, host, cvm.Config{StackWords: faultStack})
	if err != nil {
		t.Fatal(err)
	}
	for v.Status() == cvm.StatusRunning && v.Steps() < budget {
		if _, err := v.Run(budget - v.Steps()); err != nil && !errors.Is(err, errShadowDown) && v.Status() != cvm.StatusFaulted {
			t.Fatalf("run: %v", err)
		}
	}
	return v, host
}

// runSliced runs prog to the same budget in slices of cuts[i]+1 steps
// (cycling; 7 without cuts). Between slices, and after a host error, the
// VM migrates: Snapshot, a compressed checkpoint, DecodeBytes and Restore
// on the same host.
func runSliced(t *testing.T, prog *cvm.Program, budget uint64, cuts []byte, failAt int) (*cvm.VM, *flakyHost) {
	t.Helper()
	host := newHost(failAt)
	v, err := cvm.New(prog, host, cvm.Config{StackWords: faultStack})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; v.Status() == cvm.StatusRunning && v.Steps() < budget; i++ {
		slice := uint64(7)
		if len(cuts) > 0 {
			slice = uint64(cuts[i%len(cuts)]) + 1
		}
		if _, err := v.Run(min(slice, budget-v.Steps())); err != nil && !errors.Is(err, errShadowDown) && v.Status() != cvm.StatusFaulted {
			t.Fatalf("slice %d: %v", i, err)
		}
		if v.Status() != cvm.StatusRunning {
			break
		}
		blob, err := EncodeBytesWith(Meta{JobID: "s/1"}, v.Snapshot(), Options{Compress: true})
		if err != nil {
			t.Fatalf("slice %d: encode: %v", i, err)
		}
		_, img, err := DecodeBytes(blob)
		if err != nil {
			t.Fatalf("slice %d: decode: %v", i, err)
		}
		if v, err = cvm.Restore(img, host); err != nil {
			t.Fatalf("slice %d: restore: %v", i, err)
		}
	}
	return v, host
}

// runState is what a run leaves behind.
func runState(v *cvm.VM, host *flakyHost) string {
	img := v.Snapshot()
	files := map[string]string{}
	for _, name := range host.Files() {
		data, _ := host.File(name)
		files[name] = string(data)
	}
	return fmt.Sprintf("steps %d pc %d sp %d regs %v mem %v stack %v rng %#x status %v exit %d syscalls %d fault %v stdout %q files %q",
		img.Steps, img.PC, img.SP, img.Regs, img.Mem, img.Stack, img.RNG, img.Status, img.Exit, img.SysCnt, v.Fault(), host.Stdout(), files)
}

// TestFaultKinds: each kind of fault stops the program where it did
// before, run straight or in migrated slices.
func TestFaultKinds(t *testing.T) {
	for _, c := range faultCases {
		t.Run(c.name, func(t *testing.T) {
			prog := cvm.MustAssemble(c.name, c.src)
			for _, run := range []func() (*cvm.VM, *flakyHost){
				func() (*cvm.VM, *flakyHost) { return runStraight(t, prog, 1000, 0) },
				func() (*cvm.VM, *flakyHost) { return runSliced(t, prog, 1000, []byte{0, 2}, 0) },
			} {
				v, _ := run()
				fe := v.Fault()
				if v.Status() != cvm.StatusFaulted || fe == nil {
					t.Fatalf("status %v, want faulted", v.Status())
				}
				if v.Steps() != c.steps || fe.PC != c.pc || fe.Op != c.op || fe.Reason != c.reason {
					t.Fatalf("stopped after %d steps at pc %d (%s): %q; want %d, %d (%s): %q",
						v.Steps(), fe.PC, fe.Op, fe.Reason, c.steps, c.pc, c.op, c.reason)
				}
			}
		})
	}
}

// TestCheckpointAtEndOfText: a program without a final HALT, cut with
// its pc just past the text, checkpoints and restores, and the restored
// VM's first fetch faults as the in-place run does.
func TestCheckpointAtEndOfText(t *testing.T) {
	prog := cvm.MustAssemble("nohalt", ".text\nstart:\n MOVI r0, 7\n NOP\n")
	inPlace, _ := runStraight(t, prog, 1000, 0)
	v, err := cvm.New(prog, cvm.NewMemHost(), cvm.Config{StackWords: faultStack})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(2); err != nil || v.Status() != cvm.StatusRunning {
		t.Fatalf("run to the end of the text: status %v, %v", v.Status(), err)
	}
	blob, err := EncodeBytesWith(Meta{JobID: "s/1"}, v.Snapshot(), Options{Compress: true})
	if err != nil {
		t.Fatalf("encode at pc %d: %v", v.Snapshot().PC, err)
	}
	_, img, err := DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := cvm.Restore(img, cvm.NewMemHost())
	if err != nil {
		t.Fatal(err)
	}
	restored.Run(1) //nolint:errcheck // the fault is the result
	if got, want := restored.Fault(), inPlace.Fault(); got == nil || want == nil || *got != *want ||
		restored.Steps() != inPlace.Steps() {
		t.Fatalf("restored run stopped with %v after %d steps; in place %v after %d",
			got, restored.Steps(), want, inPlace.Steps())
	}
}

// FuzzRunSlices: a validated program run once for N steps ends in the
// same state as the same program run in random slices with a checkpoint
// migration between each, whatever the program does (faults included)
// and wherever a syscall fails on the host side. The program is a
// Program section as AppendProgram writes it; budget is N mod 8192.
func FuzzRunSlices(f *testing.F) {
	add := func(src string, budget uint16, cuts []byte, failAt uint8) {
		f.Add(AppendProgram(nil, cvm.MustAssemble("seed", src)), budget, cuts, failAt)
	}
	for _, c := range faultCases {
		add(c.src, 200, []byte{3, 0, 5}, 0)
	}
	add(overflowSrc, 50, []byte{1}, 0)
	add(printSrc, 50, []byte{0}, 1)
	f.Add(AppendProgram(nil, cvm.SumProgram(40)), uint16(3000), []byte{30, 200, 7}, uint8(2))
	f.Add(AppendProgram(nil, cvm.FileCopyProgram("f", "g")), uint16(5000), []byte{13, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, blob []byte, budget uint16, cuts []byte, failAt uint8) {
		r := codec.NewReader(blob)
		prog := ReadProgram(&r)
		if r.End() != nil || prog.Validate() != nil || prog.StaticWords() > 1<<12 {
			return
		}
		n := uint64(budget % 8192)
		want := runState(runStraight(t, prog, n, int(failAt)))
		got := runState(runSliced(t, prog, n, cuts, int(failAt)))
		if got != want {
			t.Fatalf("sliced run differs from one run:\n got %s\nwant %s", got, want)
		}
	})
}
