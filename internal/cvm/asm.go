package cvm

import (
	"fmt"
	"strconv"
	"strings"
)

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *AsmError) Error() string {
	return fmt.Sprintf("cvm: asm line %d: %s", e.Line, e.Msg)
}

type section int

const (
	secText section = iota + 1
	secData
	secBSS
)

type asmLine struct {
	num     int
	label   string
	mnem    string
	args    []string
	section section
}

type assembler struct {
	name      string
	lines     []asmLine
	dataWords []int64
	bssLen    int
	labels    map[string]int64 // text labels -> instr index; data/bss -> address
	textLen   int
	entry     string
}

// Assemble compiles assembler source into a Program. See package examples
// and programs.go for the syntax. The two-pass design resolves forward
// references to both text and data labels.
func Assemble(name, src string) (*Program, error) {
	a := &assembler{name: name, labels: make(map[string]int64)}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	prog, err := a.emit()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustAssemble is Assemble for known-good embedded program sources; it
// panics on error and is intended for package-level program constructors.
func MustAssemble(name, src string) *Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &AsmError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) parse(src string) error {
	sec := secText
	for i, raw := range strings.Split(src, "\n") {
		lineNum := i + 1
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var label string
		if idx := strings.Index(line, ":"); idx >= 0 && isIdent(line[:idx]) {
			label = line[:idx]
			line = strings.TrimSpace(line[idx+1:])
		}
		switch {
		case line == ".text":
			sec = secText
		case line == ".data":
			sec = secData
		case line == ".bss":
			sec = secBSS
		case strings.HasPrefix(line, ".entry"):
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return a.errf(lineNum, ".entry wants one label")
			}
			a.entry = fields[1]
		case line == "" && label != "":
			a.lines = append(a.lines, asmLine{num: lineNum, label: label, section: sec})
			continue
		case line == "":
			continue
		default:
			mnem, args := splitInstr(line)
			a.lines = append(a.lines, asmLine{
				num: lineNum, label: label, mnem: mnem, args: args, section: sec,
			})
			continue
		}
		if label != "" {
			a.lines = append(a.lines, asmLine{num: lineNum, label: label, section: sec})
		}
	}
	return nil
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inStr = !inStr
			}
		case ';':
			if !inStr {
				return s[:i]
			}
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitInstr(line string) (string, []string) {
	sp := strings.IndexAny(line, " \t")
	if sp < 0 {
		return strings.ToUpper(line), nil
	}
	mnem := strings.ToUpper(line[:sp])
	rest := strings.TrimSpace(line[sp+1:])
	if rest == "" {
		return mnem, nil
	}
	if mnem == ".STR" {
		return mnem, []string{rest}
	}
	parts := strings.Split(rest, ",")
	args := make([]string, 0, len(parts))
	for _, p := range parts {
		args = append(args, strings.TrimSpace(p))
	}
	return mnem, args
}

// layout performs the first pass: compute data/bss addresses, text
// indices, and record all labels.
func (a *assembler) layout() error {
	dataAddr := 0
	bssWords := 0
	textIdx := 0
	// First sub-pass: sizes of data items so bss base is known. Data
	// occupies [0, len(data)); bss occupies [len(data), ...).
	type pending struct {
		line   asmLine
		sizeFn func() (int, error)
		isData bool
		isBSS  bool
		isText bool
	}
	var items []pending
	for _, ln := range a.lines {
		switch ln.section {
		case secData:
			if ln.mnem == "" {
				items = append(items, pending{line: ln, isData: true, sizeFn: func() (int, error) { return 0, nil }})
				continue
			}
			switch ln.mnem {
			case ".WORD":
				n := len(ln.args)
				items = append(items, pending{line: ln, isData: true, sizeFn: func() (int, error) { return n, nil }})
			case ".STR":
				s, err := parseStringLit(ln.args)
				if err != nil {
					return a.errf(ln.num, "%v", err)
				}
				n := len(s)
				items = append(items, pending{line: ln, isData: true, sizeFn: func() (int, error) { return n, nil }})
			case ".ZERO", ".SPACE":
				n, err := sizeArg(ln.args)
				if err != nil {
					return a.errf(ln.num, "%v", err)
				}
				items = append(items, pending{line: ln, isData: true, sizeFn: func() (int, error) { return n, nil }})
			default:
				return a.errf(ln.num, "directive %s not allowed in .data", ln.mnem)
			}
		case secBSS:
			if ln.mnem == "" {
				items = append(items, pending{line: ln, isBSS: true, sizeFn: func() (int, error) { return 0, nil }})
				continue
			}
			if ln.mnem != ".SPACE" && ln.mnem != ".ZERO" {
				return a.errf(ln.num, "only .space allowed in .bss, got %s", ln.mnem)
			}
			n, err := sizeArg(ln.args)
			if err != nil {
				return a.errf(ln.num, "%v", err)
			}
			items = append(items, pending{line: ln, isBSS: true, sizeFn: func() (int, error) { return n, nil }})
		case secText:
			items = append(items, pending{line: ln, isText: true})
		}
	}
	for _, it := range items {
		switch {
		case it.isData:
			if it.line.label != "" {
				if err := a.defineLabel(it.line, int64(dataAddr)); err != nil {
					return err
				}
			}
			n, err := it.sizeFn()
			if err != nil {
				return a.errf(it.line.num, "%v", err)
			}
			if n > MaxStaticWords-dataAddr {
				return a.errf(it.line.num, "static memory exceeds the %d-word limit", MaxStaticWords)
			}
			dataAddr += n
		case it.isText:
			if it.line.label != "" {
				if err := a.defineLabel(it.line, int64(textIdx)); err != nil {
					return err
				}
			}
			if it.line.mnem != "" {
				textIdx++
			}
		}
	}
	// bss after data.
	bssBase := dataAddr
	for _, it := range items {
		if !it.isBSS {
			continue
		}
		if it.line.label != "" {
			if err := a.defineLabel(it.line, int64(bssBase+bssWords)); err != nil {
				return err
			}
		}
		n, err := it.sizeFn()
		if err != nil {
			return a.errf(it.line.num, "%v", err)
		}
		if n > MaxStaticWords-bssBase-bssWords {
			return a.errf(it.line.num, "static memory exceeds the %d-word limit", MaxStaticWords)
		}
		bssWords += n
	}
	a.bssLen = bssWords
	a.textLen = textIdx
	a.dataWords = make([]int64, 0, dataAddr)
	return nil
}

func (a *assembler) defineLabel(ln asmLine, v int64) error {
	if _, dup := a.labels[ln.label]; dup {
		return a.errf(ln.num, "label %q redefined", ln.label)
	}
	a.labels[ln.label] = v
	return nil
}

func sizeArg(args []string) (int, error) {
	if len(args) != 1 {
		return 0, fmt.Errorf(".space wants one size argument")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", args[0])
	}
	return n, nil
}

func parseStringLit(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf(".str wants one string argument")
	}
	s := strings.TrimSpace(args[0])
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf(".str argument %q is not a quoted string", s)
	}
	body := s[1 : len(s)-1]
	var out strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("dangling escape in %q", s)
		}
		switch body[i] {
		case 'n':
			out.WriteByte('\n')
		case 't':
			out.WriteByte('\t')
		case '\\':
			out.WriteByte('\\')
		case '"':
			out.WriteByte('"')
		case '0':
			out.WriteByte(0)
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out.String(), nil
}

var sysNames = map[string]int64{
	"OPEN": SysOpen, "CLOSE": SysClose, "READ": SysRead,
	"WRITE": SysWrite, "SEEK": SysSeek, "TIME": SysTime, "PRINT": SysPrint,
}

// emit performs the second pass.
func (a *assembler) emit() (*Program, error) {
	text := make([]Instr, 0, a.textLen)
	for _, ln := range a.lines {
		switch ln.section {
		case secData:
			if err := a.emitData(ln); err != nil {
				return nil, err
			}
		case secText:
			if ln.mnem == "" {
				continue
			}
			in, err := a.emitInstr(ln)
			if err != nil {
				return nil, err
			}
			text = append(text, in)
		}
	}
	entry := 0
	entryLabel := a.entry
	if entryLabel == "" {
		if v, ok := a.labels["start"]; ok {
			entry = int(v)
		}
	} else {
		v, ok := a.labels[entryLabel]
		if !ok {
			return nil, &AsmError{Line: 0, Msg: fmt.Sprintf("entry label %q undefined", entryLabel)}
		}
		entry = int(v)
	}
	return &Program{
		Name:   a.name,
		Text:   text,
		Data:   a.dataWords,
		BssLen: a.bssLen,
		Entry:  entry,
	}, nil
}

func (a *assembler) emitData(ln asmLine) error {
	switch ln.mnem {
	case "":
		return nil
	case ".WORD":
		for _, arg := range ln.args {
			v, err := a.imm(ln, arg)
			if err != nil {
				return err
			}
			a.dataWords = append(a.dataWords, v)
		}
	case ".STR":
		s, err := parseStringLit(ln.args)
		if err != nil {
			return a.errf(ln.num, "%v", err)
		}
		for _, b := range []byte(s) {
			a.dataWords = append(a.dataWords, int64(b))
		}
	case ".ZERO", ".SPACE":
		n, err := sizeArg(ln.args)
		if err != nil {
			return a.errf(ln.num, "%v", err)
		}
		for i := 0; i < n; i++ {
			a.dataWords = append(a.dataWords, 0)
		}
	}
	return nil
}

func (a *assembler) reg(ln asmLine, s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, a.errf(ln.num, "expected register, got %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, a.errf(ln.num, "bad register %q", s)
	}
	return int64(n), nil
}

func (a *assembler) imm(ln asmLine, s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, a.errf(ln.num, "empty immediate")
	}
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if body == `\n` {
			return int64('\n'), nil
		}
		if body == `\t` {
			return int64('\t'), nil
		}
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		return 0, a.errf(ln.num, "bad character literal %s", s)
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	if v, ok := a.labels[s]; ok {
		return v, nil
	}
	return 0, a.errf(ln.num, "undefined symbol %q", s)
}

// memOperand parses "[rB]", "[rB+imm]" or "[rB-imm]".
func (a *assembler) memOperand(ln asmLine, s string) (reg, off int64, err error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return 0, 0, a.errf(ln.num, "expected memory operand [rN(+off)], got %q", s)
	}
	body := s[1 : len(s)-1]
	sign := int64(1)
	idx := strings.IndexAny(body, "+-")
	regPart, offPart := body, ""
	if idx > 0 {
		regPart, offPart = body[:idx], body[idx+1:]
		if body[idx] == '-' {
			sign = -1
		}
	}
	reg, err = a.reg(ln, regPart)
	if err != nil {
		return 0, 0, err
	}
	if offPart != "" {
		off, err = a.imm(ln, offPart)
		if err != nil {
			return 0, 0, err
		}
		off *= sign
	}
	return reg, off, nil
}

func (a *assembler) want(ln asmLine, n int) error {
	if len(ln.args) != n {
		return a.errf(ln.num, "%s wants %d operands, got %d", ln.mnem, n, len(ln.args))
	}
	return nil
}

func (a *assembler) emitInstr(ln asmLine) (Instr, error) {
	var in Instr
	var err error
	switch ln.mnem {
	case "NOP":
		in.Op = OpNop
	case "HALT":
		in.Op = OpHalt
		if len(ln.args) == 1 {
			in.A, err = a.imm(ln, ln.args[0])
		} else if len(ln.args) != 0 {
			err = a.errf(ln.num, "HALT wants at most one operand")
		}
	case "MOVI":
		in.Op = OpMovi
		if err = a.want(ln, 2); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, err = a.imm(ln, ln.args[1])
			}
		}
	case "MOV":
		in.Op = OpMov
		if err = a.want(ln, 2); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, err = a.reg(ln, ln.args[1])
			}
		}
	case "LD":
		in.Op = OpLd
		if err = a.want(ln, 2); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, in.C, err = a.memOperand(ln, ln.args[1])
			}
		}
	case "ST":
		in.Op = OpSt
		if err = a.want(ln, 2); err == nil {
			in.A, in.C, err = a.memOperand(ln, ln.args[0])
			if err == nil {
				in.B, err = a.reg(ln, ln.args[1])
			}
		}
	case "PUSH", "POP", "RAND":
		switch ln.mnem {
		case "PUSH":
			in.Op = OpPush
		case "POP":
			in.Op = OpPop
		case "RAND":
			in.Op = OpRand
		}
		if err = a.want(ln, 1); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
		}
	case "ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR", "SHL", "SHR":
		in.Op = map[string]Opcode{
			"ADD": OpAdd, "SUB": OpSub, "MUL": OpMul, "DIV": OpDiv, "MOD": OpMod,
			"AND": OpAnd, "OR": OpOr, "XOR": OpXor, "SHL": OpShl, "SHR": OpShr,
		}[ln.mnem]
		if err = a.want(ln, 3); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, err = a.reg(ln, ln.args[1])
			}
			if err == nil {
				in.C, err = a.reg(ln, ln.args[2])
			}
		}
	case "ADDI", "MULI":
		if ln.mnem == "ADDI" {
			in.Op = OpAddi
		} else {
			in.Op = OpMuli
		}
		if err = a.want(ln, 3); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, err = a.reg(ln, ln.args[1])
			}
			if err == nil {
				in.C, err = a.imm(ln, ln.args[2])
			}
		}
	case "JMP", "CALL":
		if ln.mnem == "JMP" {
			in.Op = OpJmp
		} else {
			in.Op = OpCall
		}
		if err = a.want(ln, 1); err == nil {
			in.A, err = a.imm(ln, ln.args[0])
		}
	case "JEQ", "JNE", "JLT", "JLE", "JGT", "JGE":
		in.Op = map[string]Opcode{
			"JEQ": OpJeq, "JNE": OpJne, "JLT": OpJlt,
			"JLE": OpJle, "JGT": OpJgt, "JGE": OpJge,
		}[ln.mnem]
		if err = a.want(ln, 3); err == nil {
			in.A, err = a.reg(ln, ln.args[0])
			if err == nil {
				in.B, err = a.reg(ln, ln.args[1])
			}
			if err == nil {
				in.C, err = a.imm(ln, ln.args[2])
			}
		}
	case "RET":
		in.Op = OpRet
	case "SYS":
		in.Op = OpSys
		if err = a.want(ln, 1); err == nil {
			if num, ok := sysNames[strings.ToUpper(ln.args[0])]; ok {
				in.A = num
			} else {
				in.A, err = a.imm(ln, ln.args[0])
			}
		}
	default:
		err = a.errf(ln.num, "unknown mnemonic %q", ln.mnem)
	}
	return in, err
}
