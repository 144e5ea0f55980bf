package cvm

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hostKinds builds each host over an empty store, with a way to install
// a file: the syscall contract must read the same on both.
var hostKinds = []struct {
	name string
	make func(t *testing.T) (*host, func(name string, data []byte))
}{
	{"mem", func(t *testing.T) (*host, func(string, []byte)) {
		h := NewMemHost()
		return &h.host, h.SetFile
	}},
	{"dir", func(t *testing.T) (*host, func(string, []byte)) {
		dir := t.TempDir()
		h, err := NewOSHost(dir)
		if err != nil {
			t.Fatal(err)
		}
		return &h.host, func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

func reqOpen(name string, flags int64) SyscallRequest {
	return SyscallRequest{Num: SysOpen, Name: name, Args: [4]int64{0, 0, flags}}
}

func reqRead(name string, off, n int64) SyscallRequest {
	return SyscallRequest{Num: SysRead, Name: name, Args: [4]int64{3, off, n}}
}

func reqWrite(name string, off int64, data string) SyscallRequest {
	return SyscallRequest{Num: SysWrite, Name: name, Args: [4]int64{3, off}, Data: []byte(data)}
}

func reqSeek(name string, off, whence, cur int64) SyscallRequest {
	return SyscallRequest{Num: SysSeek, Name: name, Args: [4]int64{3, off, whence, cur}}
}

// TestHostContract runs one request against each host holding file "f"
// (and no "g"), then checks the reply and what "f" holds afterwards.
func TestHostContract(t *testing.T) {
	const ten = "0123456789"
	cases := []struct {
		name       string
		req        SyscallRequest
		ret, errno int64
		data       string
		after      string
	}{
		{"open read", reqOpen("f", FlagRead), 0, 0, "", ten},
		{"open read missing", reqOpen("g", FlagRead), -1, ErrnoNoEnt, "", ten},
		{"open append reports size", reqOpen("f", FlagAppend), 10, 0, "", ten},
		{"open append creates", reqOpen("g", FlagAppend), 0, 0, "", ten},
		{"open write truncates", reqOpen("f", FlagWrite), 0, 0, "", ""},
		{"open without flags", reqOpen("f", 0), -1, ErrnoInval, "", ten},
		{"empty name", reqOpen("", FlagWrite), -1, ErrnoInval, "", ten},
		{"NUL in name", reqOpen("f\x00", FlagWrite), -1, ErrnoInval, "", ten},
		{"name too long", reqOpen(strings.Repeat("n", maxNameLen+1), FlagWrite), -1, ErrnoInval, "", ten},
		{"read", reqRead("f", 2, 3), 3, 0, "234", ten},
		{"read clamps a huge count", reqRead("f", 4, 1<<62), 6, 0, "456789", ten},
		{"read at end", reqRead("f", 10, 5), 0, 0, "", ten},
		{"read far past end", reqRead("f", 1<<40, 5), 0, 0, "", ten},
		{"read missing", reqRead("g", 0, 5), -1, ErrnoNoEnt, "", ten},
		{"read negative offset", reqRead("f", -1, 5), -1, ErrnoInval, "", ten},
		{"write appends", reqWrite("f", 10, "ab"), 2, 0, "", ten + "ab"},
		{"write overwrites", reqWrite("f", 5, "mid"), 3, 0, "", "01234mid89"},
		{"write hole reads as zeros", reqWrite("f", 12, "x"), 1, 0, "", ten + "\x00\x00x"},
		{"write at the hole bound", reqWrite("f", 10+maxHole, "x"), 1, 0, "", ten + strings.Repeat("\x00", maxHole) + "x"},
		{"empty write does not extend", reqWrite("f", 12, ""), 0, 0, "", ten},
		{"write past the hole bound", reqWrite("f", 11+maxHole, "x"), -1, ErrnoInval, "", ten},
		{"write at 1<<40", reqWrite("f", 1<<40, "x"), -1, ErrnoInval, "", ten},
		{"write at MaxInt64", reqWrite("f", math.MaxInt64, "x"), -1, ErrnoInval, "", ten},
		{"write negative offset", reqWrite("f", -1, "x"), -1, ErrnoInval, "", ten},
		{"write creates", reqWrite("g", 0, "new"), 3, 0, "", ten},
		{"seek absolute", reqSeek("f", 5, 0, 0), 5, 0, "", ten},
		{"seek relative", reqSeek("f", 2, 1, 3), 5, 0, "", ten},
		{"seek from end", reqSeek("f", -4, 2, 0), 6, 0, "", ten},
		{"seek missing from end", reqSeek("g", 3, 2, 0), 3, 0, "", ten},
		{"seek before start", reqSeek("f", -20, 0, 0), -1, ErrnoInval, "", ten},
		{"seek bad whence", reqSeek("f", 0, 9, 0), -1, ErrnoInval, "", ten},
		{"print", SyscallRequest{Num: SysPrint, Data: []byte("hi")}, 2, 0, "", ten},
		{"close", SyscallRequest{Num: SysClose}, 0, 0, "", ten},
		{"unknown syscall", SyscallRequest{Num: 99}, -1, ErrnoInval, "", ten},
	}
	for _, k := range hostKinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				h, put := k.make(t)
				put("f", []byte(ten))
				rep, err := h.Syscall(tc.req)
				if err != nil || rep.Ret != tc.ret || rep.Errno != tc.errno || string(rep.Data) != tc.data {
					t.Fatalf("reply %+v err %v, want ret %d errno %d data %q", rep, err, tc.ret, tc.errno, tc.data)
				}
				if got, _ := h.Syscall(reqRead("f", 0, 1<<20)); string(got.Data) != tc.after {
					t.Fatalf("f holds %q, want %q", got.Data, tc.after)
				}
			})
		}
	}
}

// TestHostPrograms: guest programs see the same stdout and files on both
// hosts. SysPrint is captured and counted, and an append open continues
// the file.
func TestHostPrograms(t *testing.T) {
	for _, k := range hostKinds {
		t.Run(k.name, func(t *testing.T) {
			h, put := k.make(t)
			put("results", []byte("1\n"))
			for _, prog := range []*Program{SumProgram(10), ReportProgram(4, "results")} {
				v, err := New(prog, h, Config{})
				if err != nil {
					t.Fatal(err)
				}
				if st, err := v.Run(10_000_000); st != StatusHalted || err != nil || v.ExitCode() != 0 {
					t.Fatalf("%s: st %v err %v exit %d", prog.Name, st, err, v.ExitCode())
				}
			}
			if strings.TrimSpace(h.Stdout()) != "55" || h.Calls() == 0 {
				t.Fatalf("stdout %q after %d calls", h.Stdout(), h.Calls())
			}
			if got, _ := h.Syscall(reqRead("results", 0, 64)); string(got.Data) != "1\n10\n" {
				t.Fatalf("results = %q", got.Data)
			}
		})
	}
}

// TestOSHostRefusesFarWrite: a write more than 4 KiB past the end is
// refused on the directory host, as on the memory host. Accepting it made
// a sparse file of any size, and a read of it then allocated all of it.
func TestOSHostRefusesFarWrite(t *testing.T) {
	dir := t.TempDir()
	h, err := NewOSHost(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Syscall(SyscallRequest{Num: SysWrite, Name: "f", Args: [4]int64{3, 1 << 36}, Data: []byte("x")})
	if err != nil || rep.Ret != -1 || rep.Errno != ErrnoInval {
		t.Fatalf("write at 1<<36: ret %d errno %d err %v", rep.Ret, rep.Errno, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "f")); err == nil && fi.Size() != 0 {
		t.Fatalf("refused write left a %d-byte file", fi.Size())
	}
}

// TestHostReadCapsAtMaxStaticWords: a read returns at most
// MaxStaticWords bytes, the most a guest buffer can hold, however large
// the count and the file.
func TestHostReadCapsAtMaxStaticWords(t *testing.T) {
	data := make([]byte, MaxStaticWords+1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "f"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	osh, err := NewOSHost(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemHost()
	mem.SetFile("f", data)
	for _, h := range []SyscallHandler{mem, osh} {
		rep, err := h.Syscall(SyscallRequest{Num: SysRead, Name: "f", Args: [4]int64{3, 0, 1 << 30}})
		if err != nil || rep.Ret != MaxStaticWords || len(rep.Data) != MaxStaticWords {
			t.Fatalf("%T: read returned %d bytes (ret %d errno %d err %v), want %d",
				h, len(rep.Data), rep.Ret, rep.Errno, err, MaxStaticWords)
		}
	}
}

// TestMemHostAppendsAmortized fails if write goes back to reallocating
// the whole file on every append: 4096 appends of 64 bytes would then
// move the file 4096 times, against the couple of dozen moves of
// geometric growth.
func TestMemHostAppendsAmortized(t *testing.T) {
	h := NewMemHost()
	chunk := string(make([]byte, 64))
	moves := 0
	var base *byte
	for i := 0; i < 4096; i++ {
		if rep, _ := h.Syscall(reqWrite("f", int64(i*len(chunk)), chunk)); rep.Ret != 64 {
			t.Fatalf("append %d: %+v", i, rep)
		}
		if b := &h.mem["f"][0]; b != base {
			base = b
			moves++
		}
	}
	if moves > 64 {
		t.Fatalf("4096 appends moved the file %d times; want geometric growth (≤ 64)", moves)
	}
}

func TestOSHostFileCopyProgram(t *testing.T) {
	dir := t.TempDir()
	h, err := NewOSHost(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte(strings.Repeat("remote unix turns idle workstations into cycle servers\n", 8))
	if err := os.WriteFile(filepath.Join(dir, "in"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := New(FileCopyProgram("in", "out"), h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(10_000_000); st != StatusHalted || err != nil || v.ExitCode() != 0 {
		t.Fatalf("st %v err %v exit %d", st, err, v.ExitCode())
	}
	out, err := os.ReadFile(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, content) {
		t.Fatalf("copy mismatch: %d vs %d bytes", len(out), len(content))
	}
}

// TestOSHostSandboxEscapesRejected: traversal and absolute names resolve
// inside the root, so a file planted beside it is never reached.
func TestOSHostSandboxEscapesRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "secret"), []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := NewOSHost(filepath.Join(dir, "root"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../secret", "../../etc/passwd", "/etc/passwd", "sub/../../secret", "/../secret"} {
		for _, req := range []SyscallRequest{reqOpen(name, FlagRead), reqRead(name, 0, 64)} {
			if rep, err := h.Syscall(req); err != nil || rep.Errno != ErrnoNoEnt {
				t.Fatalf("%q (sys %d) = %+v err %v, want ENOENT", name, req.Num, rep, err)
			}
		}
	}
}

func TestOSHostResolveConfinement(t *testing.T) {
	root := t.TempDir()
	d := dirStore(root)
	for _, name := range []string{"a", "a/b/c", "../x", "./../../x", "/abs/path", "a/../../b"} {
		got, err := d.path(name)
		if err != nil || !strings.HasPrefix(got, root+string(filepath.Separator)) {
			t.Fatalf("path(%q) = %q, %v: not inside root %q", name, got, err, root)
		}
	}
	for _, name := range []string{"/", ".", "..", "a/.."} {
		if got, err := d.path(name); err == nil {
			t.Fatalf("path(%q) = %q: the root itself resolved as a file", name, got)
		}
	}
}

func TestOSHostTimeAdvances(t *testing.T) {
	h, err := NewOSHost(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := h.Syscall(SyscallRequest{Num: SysTime}); err != nil || rep.Ret <= 0 {
		t.Fatalf("time = %+v err %v", rep, err)
	}
}

// hostOp encodes one FuzzHostSyscall request: syscall number, name index,
// and two argument words.
func hostOp(num, name byte, a, b int64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{num, name}, uint64(a)), uint64(b))
}

// FuzzHostSyscall applies one request sequence, over three flat names, to
// a MemHost and to an OSHost on a temp dir. Neither may panic, and both
// must give the same replies (SysTime aside), stdout and files. Each
// request is 18 bytes: the syscall number (mod 9, so 0 and 8 are
// unknown), a name index, then a and b. Open takes b as flags, read a
// as offset and b as count, write a as offset and b mod 64 data bytes,
// and seek a as offset, b&3 as whence and b>>2 as the current offset.
func FuzzHostSyscall(f *testing.F) {
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(hostOp(SysWrite, 0, 0, 8), hostOp(SysWrite, 0, 1<<36, 1), hostOp(SysRead, 0, 0, 1<<36)))
	f.Add(seq(hostOp(SysWrite, 1, 4097, 1), hostOp(SysWrite, 1, 1<<40, 1), hostOp(SysWrite, 1, math.MaxInt64, 1)))
	f.Add(seq(hostOp(SysSeek, 2, math.MaxInt64, 0), hostOp(SysWrite, 2, math.MaxInt64, 1)))
	f.Add(seq(hostOp(SysOpen, 0, 0, FlagAppend), hostOp(SysWrite, 0, 0, 40), hostOp(SysSeek, 0, -3, 2),
		hostOp(SysRead, 0, 37, 10), hostOp(SysOpen, 0, 0, FlagWrite), hostOp(SysPrint, 1, 0, 5), hostOp(SysTime, 0, 0, 0)))
	names := [3]string{"a", "b", "c"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		osh, err := NewOSHost(dir)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewMemHost()
		for i := 0; len(ops) >= 18 && i < 64; ops, i = ops[18:], i+1 {
			a, b := int64(binary.BigEndian.Uint64(ops[2:])), int64(binary.BigEndian.Uint64(ops[10:]))
			req := SyscallRequest{Num: int64(ops[0] % 9), Name: names[ops[1]%3], Args: [4]int64{3, a, b}}
			switch req.Num {
			case SysOpen:
				req.Args[1] = 0
			case SysWrite, SysPrint:
				req.Data = bytes.Repeat(ops[1:2], int(uint64(b)%64))
			case SysSeek:
				req.Args[2], req.Args[3] = b&3, b>>2
			}
			want, werr := mem.Syscall(req)
			got, gerr := osh.Syscall(req)
			if req.Num == SysTime {
				continue
			}
			if werr != nil || gerr != nil || got.Ret != want.Ret || got.Errno != want.Errno || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("request %d %+v: dir %+v (%v), mem %+v (%v)", i, req, got, gerr, want, werr)
			}
		}
		if osh.Stdout() != mem.Stdout() || osh.Calls() != mem.Calls() {
			t.Fatalf("stdout %q after %d calls on dir, %q after %d on mem", osh.Stdout(), osh.Calls(), mem.Stdout(), mem.Calls())
		}
		for _, name := range names {
			want, inMem := mem.File(name)
			got, err := os.ReadFile(filepath.Join(dir, name))
			if inMem != (err == nil) || !bytes.Equal(got, want) {
				t.Fatalf("file %s: dir %d bytes (%v), mem %d bytes (exists %v)", name, len(got), err, len(want), inMem)
			}
		}
	})
}
