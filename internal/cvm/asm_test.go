package cvm

import (
	"errors"
	"strings"
	"testing"
)

func TestAssembleDataLayout(t *testing.T) {
	p, err := Assemble("layout", `
.data
a: .word 1, 2, 3
s: .str "ab"
.bss
b: .space 4
.text
start:
    MOVI r0, a
    MOVI r1, s
    MOVI r2, b
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 5 {
		t.Fatalf("data words = %d, want 5", len(p.Data))
	}
	if p.BssLen != 4 {
		t.Fatalf("bss = %d, want 4", p.BssLen)
	}
	// a at 0, s at 3, b at 5 (after data).
	if p.Text[0].B != 0 || p.Text[1].B != 3 || p.Text[2].B != 5 {
		t.Fatalf("label addresses = %d, %d, %d; want 0, 3, 5",
			p.Text[0].B, p.Text[1].B, p.Text[2].B)
	}
	if p.Data[3] != 'a' || p.Data[4] != 'b' {
		t.Fatalf("string data = %v", p.Data[3:])
	}
}

func TestAssembleForwardReferences(t *testing.T) {
	p, err := Assemble("fwd", `
.text
start:
    JMP  end
    MOVI r0, later   ; forward data reference
end:
    HALT 0
.data
later: .word 7
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[0].A != 2 {
		t.Fatalf("JMP end target = %d, want 2", p.Text[0].A)
	}
}

func TestAssembleEntryDirective(t *testing.T) {
	p, err := Assemble("entry", `
.entry main
.text
helper:
    RET
main:
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Fatalf("entry = %d, want 1", p.Entry)
	}
}

func TestAssembleDefaultEntryIsStartLabel(t *testing.T) {
	p, err := Assemble("start-label", `
.text
pad:
    NOP
start:
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Fatalf("entry = %d, want 1 (the start label)", p.Entry)
	}
}

func TestAssembleMemOperandOffsets(t *testing.T) {
	p, err := Assemble("mem", `
.data
arr: .word 10, 20, 30
.text
start:
    MOVI r1, arr
    LD   r0, [r1+2]
    LD   r2, [r1-0]
    ST   [r1+1], r0
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[1].C != 2 {
		t.Fatalf("LD offset = %d, want 2", p.Text[1].C)
	}
	v := mustRun(t, p)
	if got := v.Reg(0); got != 30 {
		t.Fatalf("r0 = %d, want 30", got)
	}
	if m, _ := v.Mem(1); m != 30 {
		t.Fatalf("mem[1] = %d, want 30 after store", m)
	}
}

func mustRun(t *testing.T, p *Program) *VM {
	t.Helper()
	v, err := New(p, NewMemHost(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(1_000_000); st != StatusHalted {
		t.Fatalf("status %v err %v", st, err)
	}
	return v
}

func TestAssembleCharAndHexImmediates(t *testing.T) {
	p, err := Assemble("imm", `
.text
start:
    MOVI r0, 'A'
    MOVI r1, 0x10
    MOVI r2, -7
    MOVI r3, '\n'
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	v := mustRun(t, p)
	if v.Reg(0) != 65 || v.Reg(1) != 16 || v.Reg(2) != -7 || v.Reg(3) != 10 {
		t.Fatalf("regs = %d %d %d %d", v.Reg(0), v.Reg(1), v.Reg(2), v.Reg(3))
	}
}

func TestAssembleCommentsAndStringsWithSemicolons(t *testing.T) {
	p, err := Assemble("comments", `
; full line comment
.data
s: .str "a;b"   ; semicolon inside string is data
.text
start:          ; trailing comment
    MOVI r0, s
    HALT 0      ; done
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 3 || p.Data[1] != ';' {
		t.Fatalf("data = %v, want a;b", p.Data)
	}
}

func TestAssembleSysMnemonicNames(t *testing.T) {
	p, err := Assemble("sys", `
.text
start:
    SYS print
    SYS 4
    HALT 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[0].A != SysPrint || p.Text[1].A != SysWrite {
		t.Fatalf("sys numbers = %d, %d", p.Text[0].A, p.Text[1].A)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSubstr string
	}{
		{"unknown mnemonic", ".text\nstart:\n FROB r0\n", "unknown mnemonic"},
		{"bad register", ".text\nstart:\n MOVI r99, 1\n", "bad register"},
		{"undefined symbol", ".text\nstart:\n JMP nowhere\n", "undefined symbol"},
		{"duplicate label", ".text\nx:\n NOP\nx:\n HALT 0\n", "redefined"},
		{"wrong operand count", ".text\nstart:\n ADD r0, r1\n", "wants 3 operands"},
		{"word in bss", ".bss\nx: .word 3\n.text\nstart:\n HALT 0\n", "only .space"},
		{"bad string", `.data` + "\n" + `s: .str nope` + "\n.text\nstart:\n HALT 0\n", "quoted string"},
		{"bad escape", `.data` + "\n" + `s: .str "a\q"` + "\n.text\nstart:\n HALT 0\n", "unknown escape"},
		{"missing entry label", ".entry nope\n.text\nx:\n HALT 0\n", "entry label"},
		{"empty text", ".data\nx: .word 1\n", "empty text"},
		{"bad space size", ".bss\nb: .space -4\n.text\nstart:\n HALT 0\n", "bad size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.name, tc.src)
			if err == nil {
				t.Fatal("assembled successfully, want error")
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSubstr)
			}
		})
	}
}

func TestAsmErrorCarriesLineNumber(t *testing.T) {
	_, err := Assemble("line", ".text\nstart:\n NOP\n FROB r0\n")
	var ae *AsmError
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *AsmError", err)
	}
	if ae.Line != 4 {
		t.Fatalf("line = %d, want 4", ae.Line)
	}
}

func TestCallRet(t *testing.T) {
	p, err := Assemble("callret", `
.text
start:
    MOVI r0, 5
    CALL double
    CALL double
    HALT 0
double:
    ADD r0, r0, r0
    RET
`)
	if err != nil {
		t.Fatal(err)
	}
	v := mustRun(t, p)
	if v.Reg(0) != 20 {
		t.Fatalf("r0 = %d, want 20", v.Reg(0))
	}
}

func TestRecursiveFactorialViaStack(t *testing.T) {
	// fact(n): if n <= 1 return 1 else n * fact(n-1), n passed in r0.
	p, err := Assemble("fact", `
.text
start:
    MOVI r0, 10
    CALL fact
    HALT 0
fact:
    MOVI r1, 1
    JGT  r0, r1, recurse
    MOVI r0, 1
    RET
recurse:
    PUSH r0
    ADDI r0, r0, -1
    CALL fact
    POP  r2
    MUL  r0, r0, r2
    RET
`)
	if err != nil {
		t.Fatal(err)
	}
	v := mustRun(t, p)
	if v.Reg(0) != 3628800 {
		t.Fatalf("10! = %d, want 3628800", v.Reg(0))
	}
}

func TestMustAssemblePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("bad", "FROB\n")
}

// hostileSources are adversarial byte soup for the assembler, and the
// seeds of FuzzAssemble. The last three ask for more static memory than
// MaxStaticWords: in .bss, in .data, and in both, with sizes that
// overflow an int when summed.
var hostileSources = []string{
	"", "\x00\x01\x02", ":::", ".data\n.data\n.data",
	".text\nstart:\n MOVI", ".text\n MOVI r0,", "label:",
	".data\nx: .word", ".data\nx: .str", ".bss\nx: .space",
	".entry", ".entry a b c", "; only a comment",
	strings.Repeat("a", 10000), ".text\n" + strings.Repeat("NOP\n", 5000),
	".data\ns: .str \"unterminated", "JMP JMP JMP",
	".text\nstart:\n LD r0, [", ".text\nstart:\n ST ], r0",
	".text\nstart:\n ADDI r0, r1, 'xx'",
	".bss\nbuf: .space 1125899906842624\n.text\nHALT 0\n",
	".data\nbuf: .space 1125899906842624\n.text\nHALT 0\n",
	".data\na: .space 1048576\n.bss\nb: .space 9223372036854775807\n.text\nHALT 0\n",
}

// TestAssembleNeverPanics feeds hostileSources to the assembler: it must
// return an error or a valid program, never panic.
func TestAssembleNeverPanics(t *testing.T) {
	for _, src := range hostileSources {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("assembler panicked on %q: %v", truncate(src), r)
				}
			}()
			prog, err := Assemble("fuzz", src)
			if err == nil && prog != nil {
				if verr := prog.Validate(); verr != nil {
					t.Fatalf("assembler emitted invalid program for %q: %v", truncate(src), verr)
				}
			}
		}()
	}
}

// FuzzAssemble: the assembler reads peer-supplied source
// (SubmitRequest.Source). It must never panic or over-allocate, and what
// it accepts must validate.
func FuzzAssemble(f *testing.F) {
	for _, src := range hostileSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if prog, err := Assemble("fuzz", src); err == nil {
			if err := prog.Validate(); err != nil {
				t.Fatalf("assembler emitted an invalid program: %v", err)
			}
		}
	})
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
