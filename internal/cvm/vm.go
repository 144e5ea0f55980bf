package cvm

import (
	"errors"
	"fmt"
)

// Status describes why the VM stopped executing.
type Status int

// VM run statuses.
const (
	StatusRunning Status = iota + 1 // step budget exhausted, more work remains
	StatusHalted                    // program executed HALT
	StatusFaulted                   // program faulted (bad memory access, ...)
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusHalted:
		return "halted"
	case StatusFaulted:
		return "faulted"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// FaultError describes a program fault: an unrecoverable error attributed
// to the guest program, not to the host.
type FaultError struct {
	PC     int64
	Op     Opcode
	Reason string
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	return fmt.Sprintf("cvm: fault at pc=%d (%s): %s", e.PC, e.Op, e.Reason)
}

// ErrNotRunnable is returned by Run on a VM that has already halted or
// faulted.
var ErrNotRunnable = errors.New("cvm: vm is not runnable")

// SyscallRequest is a system call forwarded to the host. For SysWrite and
// SysPrint, Data carries the bytes being written; for SysRead, Args[2] is
// the maximum byte count and the reply carries the bytes.
type SyscallRequest struct {
	Num  int64    `json:"num"`
	Args [4]int64 `json:"args"`
	Data []byte   `json:"data,omitempty"`
	// Name is the decoded file name for SysOpen.
	Name string `json:"name,omitempty"`
}

// SyscallReply is the host's answer to a SyscallRequest.
type SyscallReply struct {
	Ret   int64  `json:"ret"`
	Errno int64  `json:"errno"`
	Data  []byte `json:"data,omitempty"`
}

// SyscallHandler executes system calls on behalf of the VM. In Condor
// terms this is the path to the shadow process: a remote executor
// implements it by shipping the request over the network to the shadow on
// the submitting machine. An error return (as opposed to a non-zero
// Errno) means the host itself failed — e.g. the shadow connection broke —
// and aborts the run without faulting the program.
type SyscallHandler interface {
	Syscall(req SyscallRequest) (SyscallReply, error)
}

// SyscallHandlerFunc adapts a function to the SyscallHandler interface.
type SyscallHandlerFunc func(req SyscallRequest) (SyscallReply, error)

var _ SyscallHandler = SyscallHandlerFunc(nil)

// Syscall implements SyscallHandler.
func (f SyscallHandlerFunc) Syscall(req SyscallRequest) (SyscallReply, error) {
	return f(req)
}

// OpenFile records the status of one open descriptor, mirrored in the VM
// so that checkpoints capture "the status of open files" (§2.3). Offset
// is maintained from syscall results so a restore can re-open and seek.
type OpenFile struct {
	FD     int64  `json:"fd"`
	Name   string `json:"name"`
	Flags  int64  `json:"flags"`
	Offset int64  `json:"offset"`
}

// Config bounds a VM instance.
type Config struct {
	// StackWords is the stack capacity. Zero selects DefaultStackWords.
	StackWords int
	// MaxStaticWords caps static memory; zero means no extra cap.
	MaxStaticWords int
}

// DefaultStackWords is the stack capacity when Config.StackWords is zero.
const DefaultStackWords = 4096

// MaxStackWords bounds a stack's capacity (8 MiB of words). New refuses a
// larger Config.StackWords and Image.Validate a larger StackCap, so a
// stack size from a submitter or a peer's checkpoint cannot make the
// station allocate without limit.
const MaxStackWords = 1 << 20

// VM is a single guest program execution. It is not safe for concurrent
// use; the owner serializes Run and Snapshot calls.
type VM struct {
	prog    *Program
	mem     []int64 // data ++ bss
	stack   []int64
	regs    [NumRegs]int64
	pc      int64
	sp      int64 // number of live stack words
	rng     uint64
	steps   uint64 // instructions retired
	sysCnt  uint64 // syscalls issued
	status  Status
	exit    int64
	fault   *FaultError
	files   map[int64]*OpenFile
	nextFD  int64
	handler SyscallHandler
}

// New creates a VM ready to run prog from its entry point. The program is
// validated; the data segment is copied so the program value stays
// reusable.
func New(prog *Program, handler SyscallHandler, cfg Config) (*VM, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if handler == nil {
		return nil, errors.New("cvm: nil syscall handler")
	}
	if cfg.MaxStaticWords > 0 && prog.StaticWords() > cfg.MaxStaticWords {
		return nil, fmt.Errorf("cvm: program %q static size %d exceeds cap %d",
			prog.Name, prog.StaticWords(), cfg.MaxStaticWords)
	}
	stackWords := cfg.StackWords
	if stackWords <= 0 {
		stackWords = DefaultStackWords
	}
	if stackWords > MaxStackWords {
		return nil, fmt.Errorf("cvm: stack of %d words exceeds the %d-word limit", stackWords, MaxStackWords)
	}
	mem := make([]int64, prog.StaticWords())
	copy(mem, prog.Data)
	return &VM{
		prog:    prog,
		mem:     mem,
		stack:   make([]int64, stackWords),
		pc:      int64(prog.Entry),
		rng:     0x9e3779b97f4a7c15, // fixed seed: runs are deterministic
		status:  StatusRunning,
		files:   make(map[int64]*OpenFile),
		nextFD:  3, // 0..2 conventionally reserved
		handler: handler,
	}, nil
}

// Program returns the loaded program.
func (v *VM) Program() *Program { return v.prog }

// Status returns the current run status.
func (v *VM) Status() Status { return v.status }

// ExitCode returns the HALT code; meaningful only when halted.
func (v *VM) ExitCode() int64 { return v.exit }

// Fault returns the fault, if the VM faulted.
func (v *VM) Fault() *FaultError { return v.fault }

// Steps returns the number of instructions retired, the VM's CPU-time
// proxy.
func (v *VM) Steps() uint64 { return v.steps }

// Syscalls returns the number of system calls issued so far. The cost
// model charges local capacity per syscall (§3.1).
func (v *VM) Syscalls() uint64 { return v.sysCnt }

// Reg returns the value of register r (zero if out of range).
func (v *VM) Reg(r int) int64 {
	if r < 0 || r >= NumRegs {
		return 0
	}
	return v.regs[r]
}

// Mem returns the static memory word at addr, for tests and inspection.
func (v *VM) Mem(addr int64) (int64, bool) {
	if addr < 0 || addr >= int64(len(v.mem)) {
		return 0, false
	}
	return v.mem[addr], true
}

// OpenFiles returns a copy of the descriptor table, ordered by fd.
func (v *VM) OpenFiles() []OpenFile {
	out := make([]OpenFile, 0, len(v.files))
	for fd := int64(0); fd < v.nextFD; fd++ {
		if f, ok := v.files[fd]; ok {
			out = append(out, *f)
		}
	}
	return out
}

func (v *VM) faultf(op Opcode, format string, args ...any) error {
	v.status = StatusFaulted
	v.fault = &FaultError{PC: v.pc, Op: op, Reason: fmt.Sprintf(format, args...)}
	return v.fault
}

// trap writes Run's locals back and faults the program there.
func (v *VM) trap(pc, sp int64, steps uint64, op Opcode, format string, args ...any) error {
	v.pc, v.sp, v.steps = pc, sp, steps
	return v.faultf(op, format, args...)
}

// rmask masks a register operand: New and Restore run Program.Validate,
// which refuses an out-of-range register, so it only drops bounds checks.
const rmask = NumRegs - 1

// Run executes up to maxSteps instructions. It returns the resulting
// status. A non-nil error is either a host error (syscall transport
// failure: the VM remains runnable and can be resumed or checkpointed) or
// the program's FaultError (status becomes faulted).
//
// pc, sp and the step count live in locals, written back on every exit and
// before each syscall. A faulting instruction, HALT and a syscall the host
// fails count as a step and leave pc on themselves.
func (v *VM) Run(maxSteps uint64) (Status, error) {
	if v.status != StatusRunning {
		return v.status, ErrNotRunnable
	}
	text, mem, stack, regs := v.prog.Text, v.mem, v.stack, &v.regs
	pc, sp, steps := v.pc, v.sp, v.steps
loop:
	for n := maxSteps; n != 0; n-- {
		if uint64(pc) >= uint64(len(text)) {
			return StatusFaulted, v.trap(pc, sp, steps, OpNop, "pc %d outside text [0,%d)", pc, len(text))
		}
		in := &text[pc]
		steps++
		next := pc + 1
		switch in.Op {
		case OpNop:
		case OpHalt:
			v.status = StatusHalted
			v.exit = in.A
			break loop
		case OpMovi:
			regs[in.A&rmask] = in.B
		case OpMov:
			regs[in.A&rmask] = regs[in.B&rmask]
		case OpLd:
			addr := regs[in.B&rmask] + in.C
			if uint64(addr) >= uint64(len(mem)) {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "load address %d outside static [0,%d)", addr, len(mem))
			}
			regs[in.A&rmask] = mem[addr]
		case OpSt:
			addr := regs[in.A&rmask] + in.C
			if uint64(addr) >= uint64(len(mem)) {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "store address %d outside static [0,%d)", addr, len(mem))
			}
			mem[addr] = regs[in.B&rmask]
		case OpPush:
			if uint64(sp) >= uint64(len(stack)) {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "stack overflow (capacity %d words)", len(stack))
			}
			stack[sp] = regs[in.A&rmask]
			sp++
		case OpPop:
			if sp <= 0 {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "stack underflow")
			}
			sp--
			regs[in.A&rmask] = stack[sp]
		case OpAdd:
			regs[in.A&rmask] = regs[in.B&rmask] + regs[in.C&rmask]
		case OpSub:
			regs[in.A&rmask] = regs[in.B&rmask] - regs[in.C&rmask]
		case OpMul:
			regs[in.A&rmask] = regs[in.B&rmask] * regs[in.C&rmask]
		case OpDiv:
			if regs[in.C&rmask] == 0 {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "division by zero")
			}
			regs[in.A&rmask] = regs[in.B&rmask] / regs[in.C&rmask]
		case OpMod:
			if regs[in.C&rmask] == 0 {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "modulo by zero")
			}
			regs[in.A&rmask] = regs[in.B&rmask] % regs[in.C&rmask]
		case OpAddi:
			regs[in.A&rmask] = regs[in.B&rmask] + in.C
		case OpMuli:
			regs[in.A&rmask] = regs[in.B&rmask] * in.C
		case OpAnd:
			regs[in.A&rmask] = regs[in.B&rmask] & regs[in.C&rmask]
		case OpOr:
			regs[in.A&rmask] = regs[in.B&rmask] | regs[in.C&rmask]
		case OpXor:
			regs[in.A&rmask] = regs[in.B&rmask] ^ regs[in.C&rmask]
		case OpShl:
			regs[in.A&rmask] = regs[in.B&rmask] << uint64(regs[in.C&rmask]&63)
		case OpShr:
			regs[in.A&rmask] = int64(uint64(regs[in.B&rmask]) >> uint64(regs[in.C&rmask]&63))
		case OpJmp:
			next = in.A
		case OpJeq:
			if regs[in.A&rmask] == regs[in.B&rmask] {
				next = in.C
			}
		case OpJne:
			if regs[in.A&rmask] != regs[in.B&rmask] {
				next = in.C
			}
		case OpJlt:
			if regs[in.A&rmask] < regs[in.B&rmask] {
				next = in.C
			}
		case OpJle:
			if regs[in.A&rmask] <= regs[in.B&rmask] {
				next = in.C
			}
		case OpJgt:
			if regs[in.A&rmask] > regs[in.B&rmask] {
				next = in.C
			}
		case OpJge:
			if regs[in.A&rmask] >= regs[in.B&rmask] {
				next = in.C
			}
		case OpCall:
			if uint64(sp) >= uint64(len(stack)) {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "stack overflow on call")
			}
			stack[sp] = next
			sp++
			next = in.A
		case OpRet:
			if sp <= 0 {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "stack underflow on return")
			}
			sp--
			next = stack[sp]
			if uint64(next) >= uint64(len(text)) {
				return StatusFaulted, v.trap(pc, sp, steps, in.Op, "return to %d outside text", next)
			}
		case OpRand:
			// xorshift64*: part of checkpointed state, so resumed runs
			// continue the identical sequence.
			v.rng ^= v.rng >> 12
			v.rng ^= v.rng << 25
			v.rng ^= v.rng >> 27
			regs[in.A&rmask] = int64((v.rng * 0x2545f4914f6cdd1d) >> 1)
		case OpSys:
			v.pc, v.sp, v.steps = pc, sp, steps
			if err := v.syscall(in.A); err != nil {
				return v.status, err // faulted, or still running after a host error
			}
		default:
			return StatusFaulted, v.trap(pc, sp, steps, in.Op, "invalid opcode")
		}
		pc = next
	}
	v.pc, v.sp, v.steps = pc, sp, steps
	return v.status, nil
}

func (v *VM) setSysResult(ret, errno int64) {
	v.regs[0] = ret
	v.regs[1] = errno
}

// syscall dispatches one system call. Local bookkeeping (fd table) lives
// here; the actual file operations happen in the handler (the shadow).
func (v *VM) syscall(num int64) error {
	v.sysCnt++
	var err error
	switch num {
	case SysOpen:
		err = v.sysOpen()
	case SysClose:
		err = v.sysClose()
	case SysRead:
		err = v.sysRead()
	case SysWrite, SysPrint:
		err = v.sysWrite(num)
	case SysSeek:
		err = v.sysSeek()
	case SysTime:
		var reply SyscallReply
		if reply, err = v.handler.Syscall(SyscallRequest{Num: SysTime}); err == nil {
			v.setSysResult(reply.Ret, reply.Errno)
		}
	default:
		err = v.faultf(OpSys, "unknown syscall %d", num)
	}
	if err != nil && v.status == StatusRunning {
		v.sysCnt-- // a host error: not delivered, so safe to retry after migration
	}
	return err
}

// readString decodes a guest string stored one byte per word.
func (v *VM) readString(addr, n int64) (string, error) {
	if n < 0 || n > 4096 {
		return "", v.faultf(OpSys, "string length %d invalid", n)
	}
	if addr < 0 || n > int64(len(v.mem))-addr {
		return "", v.faultf(OpSys, "string [%d,%d) outside static memory", addr, addr+n)
	}
	b := make([]byte, n)
	for i := int64(0); i < n; i++ {
		b[i] = byte(v.mem[addr+i])
	}
	return string(b), nil
}

func (v *VM) sysOpen() error {
	nameAddr, nameLen, flags := v.regs[0], v.regs[1], v.regs[2]
	name, err := v.readString(nameAddr, nameLen)
	if err != nil {
		return err
	}
	if len(v.files) >= MaxOpenFiles {
		v.setSysResult(-1, ErrnoTooMany)
		return nil
	}
	reply, err := v.handler.Syscall(SyscallRequest{
		Num:  SysOpen,
		Args: [4]int64{0, 0, flags, 0},
		Name: name,
	})
	if err != nil {
		return err
	}
	if reply.Errno != ErrnoNone {
		v.setSysResult(-1, reply.Errno)
		return nil
	}
	fd := v.nextFD
	v.nextFD++
	off := int64(0)
	if reply.Ret > 0 && flags&FlagAppend != 0 {
		off = reply.Ret // shadow reports append position
	}
	v.files[fd] = &OpenFile{FD: fd, Name: name, Flags: flags, Offset: off}
	v.setSysResult(fd, ErrnoNone)
	return nil
}

func (v *VM) sysClose() error {
	fd := v.regs[0]
	f, ok := v.files[fd]
	if !ok {
		v.setSysResult(-1, ErrnoBadFD)
		return nil
	}
	reply, err := v.handler.Syscall(SyscallRequest{
		Num:  SysClose,
		Args: [4]int64{fd, 0, 0, 0},
		Name: f.Name,
	})
	if err != nil {
		return err
	}
	delete(v.files, fd)
	v.setSysResult(reply.Ret, reply.Errno)
	return nil
}

func (v *VM) sysRead() error {
	fd, addr, n := v.regs[0], v.regs[1], v.regs[2]
	f, ok := v.files[fd]
	if !ok {
		v.setSysResult(-1, ErrnoBadFD)
		return nil
	}
	if n < 0 || addr < 0 || n > int64(len(v.mem))-addr {
		return v.faultf(OpSys, "read buffer [%d,%d) outside static memory", addr, addr+n)
	}
	reply, err := v.handler.Syscall(SyscallRequest{
		Num:  SysRead,
		Args: [4]int64{fd, f.Offset, n, f.Flags},
		Name: f.Name,
	})
	if err != nil {
		return err
	}
	if reply.Errno != ErrnoNone {
		v.setSysResult(-1, reply.Errno)
		return nil
	}
	got := int64(len(reply.Data))
	if got > n {
		got = n
	}
	for i := int64(0); i < got; i++ {
		v.mem[addr+i] = int64(reply.Data[i])
	}
	f.Offset += got
	v.setSysResult(got, ErrnoNone)
	return nil
}

func (v *VM) sysWrite(num int64) error {
	var (
		fd   int64
		addr int64
		n    int64
		f    *OpenFile
	)
	if num == SysPrint {
		addr, n = v.regs[0], v.regs[1]
		fd = 1
	} else {
		fd, addr, n = v.regs[0], v.regs[1], v.regs[2]
		var ok bool
		f, ok = v.files[fd]
		if !ok {
			v.setSysResult(-1, ErrnoBadFD)
			return nil
		}
	}
	if n < 0 || addr < 0 || n > int64(len(v.mem))-addr {
		return v.faultf(OpSys, "write buffer [%d,%d) outside static memory", addr, addr+n)
	}
	data := make([]byte, n)
	for i := int64(0); i < n; i++ {
		data[i] = byte(v.mem[addr+i])
	}
	req := SyscallRequest{Num: num, Args: [4]int64{fd, 0, n, 0}, Data: data}
	if f != nil {
		req.Args[1] = f.Offset
		req.Name = f.Name
	}
	reply, err := v.handler.Syscall(req)
	if err != nil {
		return err
	}
	if reply.Errno != ErrnoNone {
		v.setSysResult(-1, reply.Errno)
		return nil
	}
	if f != nil && reply.Ret > 0 {
		f.Offset += reply.Ret
	}
	v.setSysResult(reply.Ret, reply.Errno)
	return nil
}

func (v *VM) sysSeek() error {
	fd, off, whence := v.regs[0], v.regs[1], v.regs[2]
	f, ok := v.files[fd]
	if !ok {
		v.setSysResult(-1, ErrnoBadFD)
		return nil
	}
	reply, err := v.handler.Syscall(SyscallRequest{
		Num:  SysSeek,
		Args: [4]int64{fd, off, whence, f.Offset},
		Name: f.Name,
	})
	if err != nil {
		return err
	}
	if reply.Errno == ErrnoNone && reply.Ret >= 0 {
		f.Offset = reply.Ret
	}
	v.setSysResult(reply.Ret, reply.Errno)
	return nil
}
