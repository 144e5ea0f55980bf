package cvm

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// OSHost is a SyscallHandler backed by a real directory on the
// submitting machine — what a production shadow uses so remote jobs read
// and write the user's actual files. All guest paths are confined to the
// root directory; escape attempts (.., absolute paths, symlink-style
// tricks at the name level) yield ErrnoNoEnt/ErrnoInval rather than
// host access.
//
// OSHost is safe for concurrent use. Guest stdout (SysPrint) is captured
// in memory and also mirrored to Mirror when set.
type OSHost struct {
	root   string
	mu     sync.Mutex
	stdout strings.Builder
	calls  uint64
	// Mirror, when non-nil, additionally receives guest stdout.
	Mirror io.Writer
}

var _ SyscallHandler = (*OSHost)(nil)

// NewOSHost creates a host rooted at dir, creating it if needed.
func NewOSHost(dir string) (*OSHost, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("cvm: oshost root: %w", err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("cvm: oshost root: %w", err)
	}
	return &OSHost{root: abs}, nil
}

// Root returns the sandbox directory.
func (h *OSHost) Root() string { return h.root }

// Stdout returns everything the guest printed.
func (h *OSHost) Stdout() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stdout.String()
}

// Calls returns the number of syscalls served.
func (h *OSHost) Calls() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// resolve maps a guest file name into the sandbox, rejecting escapes.
func (h *OSHost) resolve(name string) (string, error) {
	if name == "" || strings.ContainsRune(name, 0) {
		return "", errors.New("empty or NUL name")
	}
	clean := filepath.Clean("/" + name) // force-absolute then clean
	if clean == "/" {
		return "", errors.New("root is not a file")
	}
	return filepath.Join(h.root, clean), nil
}

// Syscall implements SyscallHandler.
func (h *OSHost) Syscall(req SyscallRequest) (SyscallReply, error) {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
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
		h.mu.Lock()
		h.stdout.Write(req.Data)
		mirror := h.Mirror
		h.mu.Unlock()
		if mirror != nil {
			_, _ = mirror.Write(req.Data)
		}
		return SyscallReply{Ret: int64(len(req.Data))}, nil
	case SysSeek:
		return h.seek(req), nil
	case SysTime:
		return SyscallReply{Ret: nowMillis()}, nil
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}, nil
	}
}

func (h *OSHost) open(req SyscallRequest) SyscallReply {
	path, err := h.resolve(req.Name)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	flags := req.Args[2]
	switch {
	case flags&FlagRead != 0:
		fi, err := os.Stat(path)
		if err != nil || fi.IsDir() {
			return SyscallReply{Ret: -1, Errno: ErrnoNoEnt}
		}
		return SyscallReply{Ret: 0}
	case flags&FlagAppend != 0:
		fi, err := os.Stat(path)
		if err != nil {
			if f, cerr := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644); cerr == nil {
				f.Close()
				return SyscallReply{Ret: 0}
			}
			return SyscallReply{Ret: -1, Errno: ErrnoIO}
		}
		return SyscallReply{Ret: fi.Size()}
	case flags&FlagWrite != 0:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return SyscallReply{Ret: -1, Errno: ErrnoIO}
		}
		f.Close()
		return SyscallReply{Ret: 0}
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
}

func (h *OSHost) read(req SyscallRequest) SyscallReply {
	path, err := h.resolve(req.Name)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	f, err := os.Open(path)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoNoEnt}
	}
	defer f.Close()
	off, n := req.Args[1], req.Args[2]
	if off < 0 || n < 0 {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	// n comes off the wire: allocate only what the file holds past off,
	// as MemHost does, so a hostile count cannot panic or exhaust the
	// shadow.
	fi, err := f.Stat()
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoIO}
	}
	if off >= fi.Size() {
		return SyscallReply{Ret: 0} // EOF
	}
	n = min(n, fi.Size()-off)
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return SyscallReply{Ret: -1, Errno: ErrnoIO}
	}
	return SyscallReply{Ret: int64(got), Data: buf[:got]}
}

func (h *OSHost) write(req SyscallRequest) SyscallReply {
	path, err := h.resolve(req.Name)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoIO}
	}
	defer f.Close()
	off := req.Args[1]
	if off < 0 {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	n, err := f.WriteAt(req.Data, off)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoIO}
	}
	return SyscallReply{Ret: int64(n)}
}

func (h *OSHost) seek(req SyscallRequest) SyscallReply {
	path, err := h.resolve(req.Name)
	if err != nil {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	var size int64
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	off, whence, cur := req.Args[1], req.Args[2], req.Args[3]
	var pos int64
	switch whence {
	case 0:
		pos = off
	case 1:
		pos = cur + off
	case 2:
		pos = size + off
	default:
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	if pos < 0 {
		return SyscallReply{Ret: -1, Errno: ErrnoInval}
	}
	return SyscallReply{Ret: pos}
}
