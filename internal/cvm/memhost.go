package cvm

import (
	"sort"
	"strings"
	"sync"
)

// MemHost is a SyscallHandler backed by an in-memory file store. It is
// what a "local execution" of a job looks like: no shadow, no network.
// Tests, the quickstart example, and cmd/condor-exec use it; the real
// shadow in internal/ru implements the same request contract against the
// submitting machine's actual filesystem.
//
// MemHost is safe for concurrent use.
type MemHost struct {
	mu     sync.Mutex
	files  map[string][]byte
	stdout strings.Builder
	calls  uint64
}

var _ SyscallHandler = (*MemHost)(nil)

// NewMemHost returns an empty in-memory host.
func NewMemHost() *MemHost {
	return &MemHost{files: make(map[string][]byte)}
}

// SetFile installs a file's contents.
func (h *MemHost) SetFile(name string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.files[name] = append([]byte(nil), data...)
}

// File returns a file's contents and whether it exists.
func (h *MemHost) File(name string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, ok := h.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Files lists the stored file names in sorted order.
func (h *MemHost) Files() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.files))
	for name := range h.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stdout returns everything the guest printed.
func (h *MemHost) Stdout() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stdout.String()
}

// Calls returns the number of syscalls served.
func (h *MemHost) Calls() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// Syscall implements SyscallHandler.
func (h *MemHost) Syscall(req SyscallRequest) (SyscallReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	switch req.Num {
	case SysOpen:
		return h.open(req), nil
	case SysClose:
		return SyscallReply{Ret: 0}, nil
	case SysRead:
		return h.read(req), nil
	case SysWrite:
		return h.write(req), nil
	case SysPrint:
		h.stdout.Write(req.Data)
		return SyscallReply{Ret: int64(len(req.Data))}, nil
	case SysSeek:
		return h.seek(req), nil
	case SysTime:
		// Deterministic: a fixed epoch. Real hosts return wall millis.
		return SyscallReply{Ret: 0}, nil
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}, nil
	}
}

func (h *MemHost) open(req SyscallRequest) SyscallReply {
	flags := req.Args[2]
	data, exists := h.files[req.Name]
	switch {
	case flags&FlagRead != 0:
		if !exists {
			return SyscallReply{Ret: -1, Errno: ErrnoNoEnt}
		}
		return SyscallReply{Ret: 0}
	case flags&FlagAppend != 0:
		if !exists {
			h.files[req.Name] = nil
		}
		return SyscallReply{Ret: int64(len(data))}
	case flags&FlagWrite != 0:
		h.files[req.Name] = nil // truncate/create
		return SyscallReply{Ret: 0}
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
}

func (h *MemHost) read(req SyscallRequest) SyscallReply {
	data, exists := h.files[req.Name]
	if !exists {
		return SyscallReply{Ret: -1, Errno: ErrnoNoEnt}
	}
	off, n := req.Args[1], req.Args[2]
	if off < 0 || n < 0 {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	if off >= int64(len(data)) {
		return SyscallReply{Ret: 0} // EOF
	}
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	chunk := append([]byte(nil), data[off:end]...)
	return SyscallReply{Ret: int64(len(chunk)), Data: chunk}
}

func (h *MemHost) write(req SyscallRequest) SyscallReply {
	data := h.files[req.Name]
	off := req.Args[1]
	if off < 0 || off > int64(len(data))+4096 { // a hole of at most 4 KiB: a guest's offset is unbounded
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	end := off + int64(len(req.Data))
	if grow := end - int64(len(data)); grow > 0 {
		// append grows capacity geometrically, so a file built from many
		// small appends is copied O(log n) times, not once per write.
		data = append(data, make([]byte, grow)...)
	}
	copy(data[off:end], req.Data)
	h.files[req.Name] = data
	return SyscallReply{Ret: int64(len(req.Data))}
}

func (h *MemHost) seek(req SyscallRequest) SyscallReply {
	data := h.files[req.Name]
	off, whence, cur := req.Args[1], req.Args[2], req.Args[3]
	var pos int64
	switch whence {
	case 0: // absolute
		pos = off
	case 1: // relative to current
		pos = cur + off
	case 2: // relative to end
		pos = int64(len(data)) + off
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	if pos < 0 {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	return SyscallReply{Ret: pos}
}
