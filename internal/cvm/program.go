package cvm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Program is a loaded executable: an immutable text segment plus the
// initial contents of the data segment and the size of the bss segment.
type Program struct {
	// Name is a human-readable identifier (the "executable file name").
	Name string `json:"name"`
	// Text is the instruction sequence. It is never modified at run time
	// (the VM assumes no self-modifying code, as the paper does).
	Text []Instr `json:"text"`
	// Data is the initialized data segment, in words.
	Data []int64 `json:"data"`
	// BssLen is the number of zeroed words following the data segment.
	BssLen int `json:"bssLen"`
	// Entry is the index into Text where execution starts.
	Entry int `json:"entry"`
}

// Validate checks structural invariants: entry in range, static memory
// within MaxStaticWords, all jump/call targets within text, register
// operands within range, and opcodes defined. A validated program cannot
// fault on decode (it can still fault on memory access or division).
func (p *Program) Validate() error {
	if len(p.Text) == 0 {
		return fmt.Errorf("cvm: program %q has empty text", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Text) {
		return fmt.Errorf("cvm: program %q entry %d out of range [0,%d)", p.Name, p.Entry, len(p.Text))
	}
	if p.BssLen < 0 {
		return fmt.Errorf("cvm: program %q negative bss length %d", p.Name, p.BssLen)
	}
	if len(p.Data) > MaxStaticWords || p.BssLen > MaxStaticWords-len(p.Data) {
		return fmt.Errorf("cvm: program %q static memory exceeds the %d-word limit", p.Name, MaxStaticWords)
	}
	for i, in := range p.Text {
		if err := validateInstr(in, len(p.Text)); err != nil {
			return fmt.Errorf("cvm: program %q text[%d]: %w", p.Name, i, err)
		}
	}
	return nil
}

func regOK(r int64) bool { return r >= 0 && r < NumRegs }

func validateInstr(in Instr, textLen int) error {
	if !in.Op.Valid() {
		return fmt.Errorf("invalid opcode %d", in.Op)
	}
	target := func(t int64) error {
		if t < 0 || t >= int64(textLen) {
			return fmt.Errorf("%s target %d out of text range [0,%d)", in.Op, t, textLen)
		}
		return nil
	}
	regs := func(rs ...int64) error {
		for _, r := range rs {
			if !regOK(r) {
				return fmt.Errorf("%s register %d out of range", in.Op, r)
			}
		}
		return nil
	}
	switch in.Op {
	case OpNop, OpHalt, OpRet:
		return nil
	case OpMovi, OpPush, OpPop, OpRand:
		return regs(in.A)
	case OpMov:
		return regs(in.A, in.B)
	case OpLd, OpSt, OpAddi, OpMuli:
		return regs(in.A, in.B)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return regs(in.A, in.B, in.C)
	case OpJmp, OpCall:
		return target(in.A)
	case OpJeq, OpJne, OpJlt, OpJle, OpJgt, OpJge:
		if err := regs(in.A, in.B); err != nil {
			return err
		}
		return target(in.C)
	case OpSys:
		switch in.A {
		case SysOpen, SysClose, SysRead, SysWrite, SysSeek, SysTime, SysPrint:
			return nil
		default:
			return fmt.Errorf("unknown syscall %d", in.A)
		}
	default:
		return fmt.Errorf("unhandled opcode %s", in.Op)
	}
}

// TextChecksum returns a stable hex digest of the text and initial data
// segments. The checkpoint store uses it to share one copy of the text
// among the many jobs a user submits with only different parameters (§4).
func (p *Program) TextChecksum() string {
	h := sha256.New()
	var buf [8]byte
	writeWord := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, in := range p.Text {
		writeWord(int64(in.Op))
		writeWord(in.A)
		writeWord(in.B)
		writeWord(in.C)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StaticWords returns the total static memory size (data + bss) in words.
func (p *Program) StaticWords() int { return len(p.Data) + p.BssLen }

// Disassemble renders the text segment as assembler-like lines, mostly
// for debugging and error reports.
func (p *Program) Disassemble() []string {
	out := make([]string, len(p.Text))
	for i, in := range p.Text {
		out[i] = fmt.Sprintf("%4d: %-5s %d, %d, %d", i, in.Op, in.A, in.B, in.C)
	}
	return out
}
