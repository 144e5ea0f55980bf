package cvm

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// runToEnd runs the VM until it halts or faults, failing the test on
// unexpected host errors or step exhaustion.
func runToEnd(t *testing.T, v *VM) Status {
	t.Helper()
	st, err := v.Run(50_000_000)
	if err != nil && st != StatusFaulted {
		t.Fatalf("run: %v", err)
	}
	if st == StatusRunning {
		t.Fatal("program did not terminate within step budget")
	}
	return st
}

func newVM(t *testing.T, p *Program, h SyscallHandler) *VM {
	t.Helper()
	if h == nil {
		h = NewMemHost()
	}
	v, err := New(p, h, Config{})
	if err != nil {
		t.Fatalf("new vm: %v", err)
	}
	return v
}

func TestSumProgram(t *testing.T) {
	host := NewMemHost()
	v := newVM(t, SumProgram(100), host)
	if st := runToEnd(t, v); st != StatusHalted {
		t.Fatalf("status = %v, fault = %v", st, v.Fault())
	}
	if v.ExitCode() != 0 {
		t.Fatalf("exit = %d", v.ExitCode())
	}
	if got := strings.TrimSpace(host.Stdout()); got != "5050" {
		t.Fatalf("stdout = %q, want 5050", got)
	}
}

func TestPrimeCountProgram(t *testing.T) {
	host := NewMemHost()
	v := newVM(t, PrimeCountProgram(100), host)
	runToEnd(t, v)
	if got := strings.TrimSpace(host.Stdout()); got != "25" {
		t.Fatalf("primes below 100 = %q, want 25", got)
	}
}

func TestMonteCarloPiDeterministic(t *testing.T) {
	run := func() string {
		host := NewMemHost()
		v := newVM(t, MonteCarloPiProgram(20000), host)
		runToEnd(t, v)
		return strings.TrimSpace(host.Stdout())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs differ: %q vs %q", a, b)
	}
	// crude sanity: the estimate of pi*10000 should be near 31416
	if len(a) != 5 || a[0] != '3' {
		t.Fatalf("pi estimate %q looks wrong", a)
	}
}

func TestSpinProgramStepCount(t *testing.T) {
	v := newVM(t, SpinProgram(1000), nil)
	runToEnd(t, v)
	// start: 3 setup instructions, loop: 3 per iteration + final JGE, HALT.
	want := uint64(3 + 3*1000 + 1 + 1)
	if v.Steps() != want {
		t.Fatalf("steps = %d, want %d", v.Steps(), want)
	}
}

func TestFileCopyProgram(t *testing.T) {
	host := NewMemHost()
	content := []byte("The Condor system schedules long running background jobs at idle workstations.\n")
	host.SetFile("in", content)
	v := newVM(t, FileCopyProgram("in", "out"), host)
	if st := runToEnd(t, v); st != StatusHalted {
		t.Fatalf("status %v fault %v", st, v.Fault())
	}
	if v.ExitCode() != 0 {
		t.Fatalf("exit = %d", v.ExitCode())
	}
	out, ok := host.File("out")
	if !ok {
		t.Fatal("out file missing")
	}
	if string(out) != string(content) {
		t.Fatalf("copy mismatch: %q", out)
	}
	if len(v.OpenFiles()) != 0 {
		t.Fatalf("descriptors leaked: %v", v.OpenFiles())
	}
}

func TestReportProgramAppends(t *testing.T) {
	host := NewMemHost()
	host.SetFile("results", []byte("42\n"))
	v := newVM(t, ReportProgram(10, "results"), host)
	if st := runToEnd(t, v); st != StatusHalted || v.ExitCode() != 0 {
		t.Fatalf("status %v exit %d fault %v", st, v.ExitCode(), v.Fault())
	}
	out, _ := host.File("results")
	if string(out) != "42\n55\n" {
		t.Fatalf("results = %q, want 42\\n55\\n", out)
	}
}

func TestOpenMissingFileReturnsErrno(t *testing.T) {
	v := newVM(t, FileCopyProgram("nope", "out"), NewMemHost())
	runToEnd(t, v)
	if v.ExitCode() != 1 {
		t.Fatalf("exit = %d, want 1 (open failure path)", v.ExitCode())
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	p := MustAssemble("divzero", `
.text
start:
    MOVI r1, 10
    MOVI r2, 0
    DIV  r0, r1, r2
    HALT 0
`)
	v := newVM(t, p, nil)
	st, err := v.Run(100)
	if st != StatusFaulted {
		t.Fatalf("status = %v, want faulted", st)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v is not a FaultError", err)
	}
	if !strings.Contains(fe.Reason, "division by zero") {
		t.Fatalf("fault reason = %q", fe.Reason)
	}
}

func TestMemoryFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"load out of range", `
.data
x: .word 1
.text
start:
    MOVI r1, 999
    LD   r0, [r1]
    HALT 0
`},
		{"store negative", `
.data
x: .word 1
.text
start:
    MOVI r1, -5
    ST   [r1], r1
    HALT 0
`},
		{"stack underflow", `
.text
start:
    POP r0
    HALT 0
`},
		{"ret without call", `
.text
start:
    RET
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := newVM(t, MustAssemble(tc.name, tc.src), nil)
			if st, _ := v.Run(100); st != StatusFaulted {
				t.Fatalf("status = %v, want faulted", st)
			}
		})
	}
}

func TestStackOverflowFaults(t *testing.T) {
	p := MustAssemble("overflow", `
.text
start:
    MOVI r0, 1
loop:
    PUSH r0
    JMP  loop
`)
	v, err := New(p, NewMemHost(), Config{StackWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := v.Run(10_000); st != StatusFaulted {
		t.Fatalf("status = %v, want faulted", st)
	}
	if !strings.Contains(v.Fault().Reason, "stack overflow") {
		t.Fatalf("fault = %v", v.Fault())
	}
}

func TestRunStepBudget(t *testing.T) {
	v := newVM(t, SpinProgram(100000), nil)
	st, err := v.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusRunning {
		t.Fatalf("status = %v, want running", st)
	}
	if v.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", v.Steps())
	}
}

func TestRunAfterHaltFails(t *testing.T) {
	v := newVM(t, SpinProgram(1), nil)
	runToEnd(t, v)
	if _, err := v.Run(10); !errors.Is(err, ErrNotRunnable) {
		t.Fatalf("err = %v, want ErrNotRunnable", err)
	}
}

func TestHostErrorLeavesVMRunnable(t *testing.T) {
	hostErr := errors.New("shadow connection lost")
	broken := SyscallHandlerFunc(func(SyscallRequest) (SyscallReply, error) {
		return SyscallReply{}, hostErr
	})
	host := NewMemHost()
	p := MustAssemble("printer", `
.data
msg: .str "hi"
.text
start:
    MOVI r0, msg
    MOVI r1, 2
    SYS  print
    HALT 0
`)
	v, err := New(p, broken, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.Run(100)
	if !errors.Is(err, hostErr) {
		t.Fatalf("err = %v, want host error", err)
	}
	if st != StatusRunning {
		t.Fatalf("status = %v, want running (job must stay migratable)", st)
	}
	// The same VM state can be snapshotted and resumed against a healthy
	// host: the syscall retries and the program completes.
	img := v.Snapshot()
	v2, err := Restore(img, host)
	if err != nil {
		t.Fatal(err)
	}
	if st := runToEnd(t, v2); st != StatusHalted {
		t.Fatalf("resumed status = %v", st)
	}
	if host.Stdout() != "hi" {
		t.Fatalf("stdout = %q", host.Stdout())
	}
}

func TestSyscallCountTracked(t *testing.T) {
	host := NewMemHost()
	host.SetFile("in", []byte(strings.Repeat("x", 200)))
	v := newVM(t, FileCopyProgram("in", "out"), host)
	runToEnd(t, v)
	// 2 opens + 4 reads (64+64+64+8) + 1 EOF read + 4 writes + 2 closes.
	if v.Syscalls() < 10 {
		t.Fatalf("syscalls = %d, want >= 10", v.Syscalls())
	}
	if host.Calls() != v.Syscalls() {
		t.Fatalf("host saw %d calls, vm counted %d", host.Calls(), v.Syscalls())
	}
}

func TestNewRejectsBadPrograms(t *testing.T) {
	if _, err := New(&Program{Name: "empty"}, NewMemHost(), Config{}); err == nil {
		t.Fatal("empty program accepted")
	}
	p := SpinProgram(1)
	if _, err := New(p, nil, Config{}); err == nil {
		t.Fatal("nil handler accepted")
	}
	big := &Program{Name: "big", Text: []Instr{{Op: OpHalt}}, Data: []int64{1}, BssLen: MaxStaticWords}
	if _, err := New(big, NewMemHost(), Config{}); err == nil {
		t.Fatal("program past the static limit accepted")
	}
	big.BssLen--
	if _, err := New(big, NewMemHost(), Config{}); err != nil {
		t.Fatalf("program at the static limit refused: %v", err)
	}
	if _, err := New(p, NewMemHost(), Config{StackWords: MaxStackWords}); err != nil {
		t.Fatalf("stack at the limit refused: %v", err)
	}
	if _, err := New(p, NewMemHost(), Config{StackWords: 1 << 62}); err == nil {
		t.Fatal("stack past the limit accepted")
	}
}

func TestProgramValidateCatchesBadTargets(t *testing.T) {
	bad := []Program{
		{Name: "jmp", Text: []Instr{{Op: OpJmp, A: 5}}},
		{Name: "reg", Text: []Instr{{Op: OpMovi, A: 99}}},
		{Name: "op", Text: []Instr{{Op: Opcode(200)}}},
		{Name: "sys", Text: []Instr{{Op: OpSys, A: 42}}},
		{Name: "entry", Text: []Instr{{Op: OpHalt}}, Entry: 3},
		{Name: "bss", Text: []Instr{{Op: OpHalt}}, BssLen: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Fatalf("program %q validated but is invalid", bad[i].Name)
		}
	}
}

func TestTextChecksumSharedAcrossParameters(t *testing.T) {
	a := SumProgram(10)
	b := SumProgram(999999)
	if a.TextChecksum() != b.TextChecksum() {
		t.Fatal("same text with different data parameters must share a checksum")
	}
	c := PrimeCountProgram(10)
	if a.TextChecksum() == c.TextChecksum() {
		t.Fatal("different programs share a checksum")
	}
}

func TestOpcodeString(t *testing.T) {
	if OpAdd.String() != "ADD" {
		t.Fatalf("OpAdd = %q", OpAdd)
	}
	if got := Opcode(250).String(); !strings.Contains(got, "250") {
		t.Fatalf("unknown opcode renders as %q", got)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusRunning: "running", StatusHalted: "halted", StatusFaulted: "faulted",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", st, st, want)
		}
	}
	if !strings.Contains(Status(99).String(), "99") {
		t.Fatal("unknown status should include its number")
	}
}

func TestDisassemble(t *testing.T) {
	p := SpinProgram(5)
	lines := p.Disassemble()
	if len(lines) != len(p.Text) {
		t.Fatalf("%d lines for %d instructions", len(lines), len(p.Text))
	}
	if !strings.Contains(lines[0], "MOVI") {
		t.Fatalf("first line %q", lines[0])
	}
}

// TestRandomProgramsNeverPanic: any instruction sequence that passes
// Validate must execute without panicking — faulting is fine, memory
// corruption or crashes are not.
func TestRandomProgramsNeverPanic(t *testing.T) {
	r := rand.New(rand.NewSource(1987))
	validated, ran := 0, 0
	for trial := 0; trial < 3000; trial++ {
		textLen := 1 + r.Intn(20)
		text := make([]Instr, textLen)
		memLen := int64(r.Intn(8) + r.Intn(8))
		field := func() int64 {
			// Mostly plausible values (registers / nearby targets), with a
			// tail of wild ones so invalid programs also appear, and the
			// extremes a bounds check can overflow on.
			switch r.Intn(20) {
			case 0, 1:
				return int64(r.Intn(4000) - 2000)
			case 2:
				return []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, memLen, -memLen}[r.Intn(5)]
			}
			return int64(r.Intn(textLen + NumRegs))
		}
		for i := range text {
			text[i] = Instr{
				Op: Opcode(r.Intn(int(opMax) + 3)), // includes invalid ops
				A:  field(),
				B:  field(),
				C:  field(),
			}
		}
		prog := &Program{
			Name:   "fuzz",
			Text:   text,
			Data:   make([]int64, memLen/2),
			BssLen: int(memLen - memLen/2),
			Entry:  r.Intn(textLen),
		}
		if prog.Validate() != nil {
			continue
		}
		validated++
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("vm panicked on validated program %v: %v", text, rec)
				}
			}()
			vm, err := New(prog, NewMemHost(), Config{StackWords: 32})
			if err != nil {
				return
			}
			_, _ = vm.Run(2000)
			ran++
		}()
	}
	if validated < 30 || ran < 30 {
		t.Fatalf("fuzz exercised too little: %d validated, %d ran", validated, ran)
	}
}

func TestBitwiseAndShiftOps(t *testing.T) {
	p := MustAssemble("alu", `
.text
start:
    MOVI r1, 0b0       ; 12 via math below to exercise ops
    MOVI r1, 12
    MOVI r2, 10
    AND  r3, r1, r2    ; 8
    OR   r4, r1, r2    ; 14
    XOR  r5, r1, r2    ; 6
    MOVI r6, 2
    SHL  r7, r1, r6    ; 48
    SHR  r8, r1, r6    ; 3
    MOVI r6, 70        ; shift counts are taken mod 64
    SHL  r9, r1, r6    ; 12 << 6 = 768
    MULI r10, r1, -3   ; -36
    HALT 0
`)
	v := mustRun(t, p)
	want := map[int]int64{3: 8, 4: 14, 5: 6, 7: 48, 8: 3, 9: 768, 10: -36}
	for reg, val := range want {
		if got := v.Reg(reg); got != val {
			t.Errorf("r%d = %d, want %d", reg, got, val)
		}
	}
}

func TestShiftOfNegativeIsLogical(t *testing.T) {
	p := MustAssemble("shr-neg", `
.text
start:
    MOVI r1, -1
    MOVI r2, 63
    SHR  r3, r1, r2
    HALT 0
`)
	v := mustRun(t, p)
	if got := v.Reg(3); got != 1 {
		t.Fatalf("logical shift of -1 by 63 = %d, want 1", got)
	}
}

func TestRegAndMemAccessors(t *testing.T) {
	v := newVM(t, SumProgram(5), nil)
	if v.Reg(-1) != 0 || v.Reg(NumRegs) != 0 {
		t.Fatal("out-of-range Reg must be 0")
	}
	if _, ok := v.Mem(-1); ok {
		t.Fatal("negative address readable")
	}
	if _, ok := v.Mem(1 << 40); ok {
		t.Fatal("absurd address readable")
	}
	if got, ok := v.Mem(0); !ok || got != 5 {
		t.Fatalf("mem[0] = %d/%v, want the n parameter", got, ok)
	}
}

func TestDescriptorTableLimit(t *testing.T) {
	// Open the same file until the per-process table fills; the VM must
	// return ErrnoTooMany rather than fault (mirroring a 1980s per-process
	// fd limit).
	p := MustAssemble("fdlimit", `
.data
name: .str "f"
.text
start:
    MOVI r5, 0          ; successful opens
loop:
    MOVI r0, name
    MOVI r1, 1
    MOVI r2, 2          ; FlagWrite
    SYS  open
    MOVI r9, 0
    JLT  r0, r9, out
    ADDI r5, r5, 1
    MOVI r9, 64
    JLT  r5, r9, loop
out:
    MOV  r0, r1         ; errno of the failing open
    HALT 0
`)
	host := NewMemHost()
	v, err := New(p, host, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(10_000); st != StatusHalted || err != nil {
		t.Fatalf("st %v err %v fault %v", st, err, v.Fault())
	}
	if got := v.Reg(5); got != MaxOpenFiles {
		t.Fatalf("successful opens = %d, want %d", got, MaxOpenFiles)
	}
	if got := v.Reg(0); got != ErrnoTooMany {
		t.Fatalf("errno = %d, want ErrnoTooMany", got)
	}
}

func TestSeekSyscallFromGuest(t *testing.T) {
	p := MustAssemble("seeker", `
.data
name: .str "f"
.bss
buf: .space 4
.text
start:
    MOVI r0, name
    MOVI r1, 1
    MOVI r2, 1          ; FlagRead
    SYS  open
    MOVI r9, 0
    JLT  r0, r9, fail
    MOV  r12, r0
    ; seek to byte 6 absolute
    MOV  r0, r12
    MOVI r1, 6
    MOVI r2, 0
    SYS  seek
    JLT  r0, r9, fail
    ; read 4 bytes from there
    MOV  r0, r12
    MOVI r1, buf
    MOVI r2, 4
    SYS  read
    MOVI r9, 4
    JNE  r0, r9, fail
    MOVI r0, buf
    MOVI r1, 4
    SYS  print
    HALT 0
fail:
    HALT 1
`)
	host := NewMemHost()
	host.SetFile("f", []byte("abcdefGHIJkl"))
	v, err := New(p, host, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(10_000); st != StatusHalted || err != nil || v.ExitCode() != 0 {
		t.Fatalf("st %v err %v exit %d", st, err, v.ExitCode())
	}
	if host.Stdout() != "GHIJ" {
		t.Fatalf("seek+read = %q, want GHIJ", host.Stdout())
	}
}

func TestSyscallHandlerFuncAdapter(t *testing.T) {
	called := false
	h := SyscallHandlerFunc(func(req SyscallRequest) (SyscallReply, error) {
		called = true
		return SyscallReply{Ret: 7}, nil
	})
	rep, err := h.Syscall(SyscallRequest{Num: SysTime})
	if err != nil || rep.Ret != 7 || !called {
		t.Fatalf("adapter broken: %+v %v", rep, err)
	}
}

// TestSyscallBufferBoundsDoNotOverflow: a guest buffer whose end
// overflows int64 (address near MaxInt64, small length) faults like any
// other buffer outside static memory. Checked as addr+n it wrapped
// negative, passed, and the copy panicked in the executor.
func TestSyscallBufferBoundsDoNotOverflow(t *testing.T) {
	const setup = `
.data
name: .str "f"
.text
start:
    MOVI r0, name
    MOVI r1, 1
    MOVI r2, %s
    SYS  open
    MOVI r1, 9223372036854775806
    MOVI r2, 8
`
	for _, tc := range []struct {
		name, src, reason string
	}{
		{"print", ".text\nstart:\n MOVI r0, 9223372036854775806\n MOVI r1, 8\n SYS print\n HALT 0\n", "write buffer"},
		{"open name", ".text\nstart:\n MOVI r0, 9223372036854775806\n MOVI r1, 8\n MOVI r2, 1\n SYS open\n HALT 0\n", "string"},
		{"read", strings.Replace(setup, "%s", "1", 1) + " SYS read\n HALT 0\n", "read buffer"},
		{"write", strings.Replace(setup, "%s", "2", 1) + " SYS write\n HALT 0\n", "write buffer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := NewMemHost()
			host.SetFile("f", []byte("0123456789"))
			v := newVM(t, MustAssemble(tc.name, tc.src), host)
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("vm panicked: %v", rec)
				}
			}()
			st, err := v.Run(100)
			if st != StatusFaulted || err == nil || !strings.Contains(v.Fault().Reason, tc.reason+" [") ||
				!strings.Contains(v.Fault().Reason, "outside static memory") {
				t.Fatalf("status %v, err %v; want a %q fault", st, err, tc.reason)
			}
		})
	}
}
