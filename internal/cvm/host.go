package cvm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxNameLen bounds a file name: the VM decodes at most this many bytes
// (readString), and a host refuses a longer name off the wire.
const maxNameLen = 4096

// maxHole bounds how far past a file's end a write may start. A guest can
// seek anywhere, so without it one write could make the host allocate
// (MemHost) or reserve (OSHost) a file of any size.
const maxHole = 4096

// store is where a host's file bytes live. Every name reaching it is
// non-empty, at most maxNameLen bytes and free of NUL; size reports
// fs.ErrNotExist for a missing file. The host's mutex serializes calls.
type store interface {
	size(name string) (int64, error)
	create(name string, trunc bool) error
	readAt(name string, p []byte, off int64) (int, error)
	writeAt(name string, p []byte, off int64) error
}

// host is the one implementation of the syscall contract. At a shadow
// every request comes off the wire, so every argument is checked here
// before it reaches the store. MemHost and OSHost embed it and differ
// only in their store and SysTime source.
type host struct {
	mu     sync.Mutex
	stdout strings.Builder
	calls  uint64
	files  store
	clock  func() int64 // SysTime, in milliseconds
}

// Stdout returns everything the guest printed.
func (h *host) Stdout() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stdout.String()
}

// Calls returns the number of syscalls served.
func (h *host) Calls() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// Syscall implements SyscallHandler.
func (h *host) Syscall(req SyscallRequest) (SyscallReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	named := req.Num == SysOpen || req.Num == SysRead || req.Num == SysWrite || req.Num == SysSeek
	if named && (req.Name == "" || len(req.Name) > maxNameLen || strings.ContainsRune(req.Name, 0)) {
		return refuse(ErrnoInval), nil
	}
	switch req.Num {
	case SysOpen:
		return h.open(req.Name, req.Args[2]), nil
	case SysClose:
		return SyscallReply{}, nil
	case SysRead:
		return h.read(req.Name, req.Args[1], req.Args[2]), nil
	case SysWrite:
		return h.write(req.Name, req.Args[1], req.Data), nil
	case SysPrint:
		h.stdout.Write(req.Data)
		return SyscallReply{Ret: int64(len(req.Data))}, nil
	case SysSeek:
		return h.seek(req.Name, req.Args[1], req.Args[2], req.Args[3]), nil
	case SysTime:
		return SyscallReply{Ret: h.clock()}, nil
	default:
		return refuse(ErrnoInval), nil
	}
}

func refuse(errno int64) SyscallReply { return SyscallReply{Ret: -1, Errno: errno} }

// failed maps a store error to the guest's errno.
func failed(err error) SyscallReply {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return refuse(ErrnoNoEnt)
	case errors.Is(err, fs.ErrInvalid): // a name the store cannot hold
		return refuse(ErrnoInval)
	default:
		return refuse(ErrnoIO)
	}
}

// open answers 0 for read and write (truncate or create) and the file's
// size for append (create if missing), which becomes the descriptor's
// starting offset.
func (h *host) open(name string, flags int64) SyscallReply {
	var size int64
	var err error
	switch {
	case flags&FlagRead != 0:
		_, err = h.files.size(name)
	case flags&FlagAppend != 0:
		if size, err = h.files.size(name); errors.Is(err, fs.ErrNotExist) {
			err = h.files.create(name, false)
		}
	case flags&FlagWrite != 0:
		err = h.files.create(name, true)
	default:
		return refuse(ErrnoInval)
	}
	if err != nil {
		return failed(err)
	}
	return SyscallReply{Ret: size}
}

// read returns up to n bytes at off, and nothing at or past the end. It
// allocates at most what the file holds past off and at most
// MaxStaticWords bytes: a guest's buffer lies in its static memory, so
// no legitimate read asks for more, and a hostile count cannot exhaust
// the shadow.
func (h *host) read(name string, off, n int64) SyscallReply {
	size, err := h.files.size(name)
	if err != nil {
		return failed(err)
	}
	if off < 0 || n < 0 {
		return refuse(ErrnoInval)
	}
	if off >= size {
		return SyscallReply{} // EOF
	}
	buf := make([]byte, min(n, size-off, MaxStaticWords))
	got, err := h.files.readAt(name, buf, off)
	if err != nil {
		return failed(err)
	}
	return SyscallReply{Ret: int64(got), Data: buf[:got]}
}

// write stores data at off, creating the file if missing. The gap
// between the end and off reads as zeros and is at most maxHole bytes.
func (h *host) write(name string, off int64, data []byte) SyscallReply {
	size, err := h.files.size(name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return failed(err)
	}
	if off < 0 || off > size+maxHole {
		return refuse(ErrnoInval)
	}
	if err := h.files.writeAt(name, data, off); err != nil {
		return failed(err)
	}
	return SyscallReply{Ret: int64(len(data))}
}

// seek computes a new offset from whence 0 (absolute), 1 (relative to
// cur) or 2 (relative to the end); a missing file has size 0.
func (h *host) seek(name string, off, whence, cur int64) SyscallReply {
	size, err := h.files.size(name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return failed(err)
	}
	pos := off
	switch whence {
	case 0:
	case 1:
		pos += cur
	case 2:
		pos += size
	default:
		return refuse(ErrnoInval)
	}
	if pos < 0 {
		return refuse(ErrnoInval)
	}
	return SyscallReply{Ret: pos}
}

// MemHost is a SyscallHandler backed by an in-memory file store. It is
// what a "local execution" of a job looks like: no shadow, no network.
// Tests, the quickstart example, cmd/condor-exec and the benchmark use
// it. SysTime answers 0, so runs are deterministic.
//
// MemHost is safe for concurrent use.
type MemHost struct {
	host
	mem memStore
}

var _ SyscallHandler = (*MemHost)(nil)

// NewMemHost returns an empty in-memory host.
func NewMemHost() *MemHost {
	h := &MemHost{mem: memStore{}}
	h.files = h.mem
	h.clock = func() int64 { return 0 }
	return h
}

// SetFile installs a file's contents.
func (h *MemHost) SetFile(name string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mem[name] = bytes.Clone(data)
}

// File returns a file's contents and whether it exists.
func (h *MemHost) File(name string) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, ok := h.mem[name]
	return bytes.Clone(data), ok
}

// Files lists the stored file names in sorted order.
func (h *MemHost) Files() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.mem))
	for name := range h.mem {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// memStore keeps each file as one byte slice.
type memStore map[string][]byte

func (m memStore) size(name string) (int64, error) {
	data, ok := m[name]
	if !ok {
		return 0, fs.ErrNotExist
	}
	return int64(len(data)), nil
}

func (m memStore) create(name string, trunc bool) error {
	if _, ok := m[name]; trunc || !ok {
		m[name] = nil
	}
	return nil
}

func (m memStore) readAt(name string, p []byte, off int64) (int, error) {
	return copy(p, m[name][off:]), nil
}

func (m memStore) writeAt(name string, p []byte, off int64) error {
	data := m[name]
	if len(p) > 0 { // an empty write creates the file but does not extend it
		end := off + int64(len(p))
		if grow := end - int64(len(data)); grow > 0 {
			// append grows capacity geometrically, so a file built from many
			// small appends is copied O(log n) times, not once per write.
			data = append(data, make([]byte, grow)...)
		}
		copy(data[off:end], p)
	}
	m[name] = data
	return nil
}

// OSHost is a SyscallHandler backed by a real directory on the
// submitting machine — what a production shadow uses so remote jobs read
// and write the user's actual files. Every guest name is confined to the
// root directory: ".." and absolute names resolve inside it, and a name
// that resolves to the root itself is refused with ErrnoInval. SysTime
// answers wall-clock milliseconds.
//
// OSHost is safe for concurrent use.
type OSHost struct {
	host
}

var _ SyscallHandler = (*OSHost)(nil)

// NewOSHost creates a host rooted at dir, creating it if needed.
func NewOSHost(dir string) (*OSHost, error) {
	abs, err := filepath.Abs(dir)
	if err == nil {
		err = os.MkdirAll(abs, 0o755)
	}
	if err != nil {
		return nil, fmt.Errorf("cvm: oshost root: %w", err)
	}
	h := &OSHost{}
	h.files = dirStore(abs)
	h.clock = func() int64 { return time.Now().UnixMilli() }
	return h, nil
}

// dirStore keeps each file under an absolute root directory.
type dirStore string

// path maps a guest name into the root, rejecting the root itself.
func (d dirStore) path(name string) (string, error) {
	clean := filepath.Clean("/" + name) // force-absolute, then clean
	if clean == "/" {
		return "", fs.ErrInvalid
	}
	return filepath.Join(string(d), clean), nil
}

func (d dirStore) open(name string, flag int) (*os.File, error) {
	path, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(path, flag, 0o644)
}

func (d dirStore) size(name string) (int64, error) {
	path, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err == nil && !fi.Mode().IsRegular() {
		err = fs.ErrNotExist
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (d dirStore) create(name string, trunc bool) error {
	flag := os.O_CREATE | os.O_WRONLY
	if trunc {
		flag |= os.O_TRUNC
	}
	f, err := d.open(name, flag)
	if err != nil {
		return err
	}
	return f.Close()
}

func (d dirStore) readAt(name string, p []byte, off int64) (int, error) {
	f, err := d.open(name, os.O_RDONLY)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := f.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

func (d dirStore) writeAt(name string, p []byte, off int64) error {
	f, err := d.open(name, os.O_CREATE|os.O_WRONLY)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(p, off)
	return errors.Join(err, f.Close())
}
