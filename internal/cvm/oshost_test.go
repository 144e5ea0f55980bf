package cvm

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newOSHost(t *testing.T) *OSHost {
	t.Helper()
	h, err := NewOSHost(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOSHostFileCopyProgram(t *testing.T) {
	h := newOSHost(t)
	content := []byte(strings.Repeat("remote unix turns idle workstations into cycle servers\n", 8))
	if err := os.WriteFile(filepath.Join(h.Root(), "in"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := New(FileCopyProgram("in", "out"), h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(10_000_000); st != StatusHalted || err != nil {
		t.Fatalf("st %v err %v", st, err)
	}
	if v.ExitCode() != 0 {
		t.Fatalf("exit %d", v.ExitCode())
	}
	out, err := os.ReadFile(filepath.Join(h.Root(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, content) {
		t.Fatalf("copy mismatch: %d vs %d bytes", len(out), len(content))
	}
}

func TestOSHostReportAppend(t *testing.T) {
	h := newOSHost(t)
	if err := os.WriteFile(filepath.Join(h.Root(), "results"), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := New(ReportProgram(4, "results"), h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(10_000_000); st != StatusHalted || err != nil {
		t.Fatalf("st %v err %v", st, err)
	}
	out, _ := os.ReadFile(filepath.Join(h.Root(), "results"))
	if string(out) != "1\n10\n" {
		t.Fatalf("results = %q", out)
	}
}

func TestOSHostStdoutCaptureAndMirror(t *testing.T) {
	h := newOSHost(t)
	var mirror bytes.Buffer
	h.Mirror = &mirror
	v, err := New(SumProgram(10), h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.Run(1_000_000); st != StatusHalted || err != nil {
		t.Fatalf("st %v err %v", st, err)
	}
	if strings.TrimSpace(h.Stdout()) != "55" {
		t.Fatalf("stdout = %q", h.Stdout())
	}
	if strings.TrimSpace(mirror.String()) != "55" {
		t.Fatalf("mirror = %q", mirror.String())
	}
	if h.Calls() == 0 {
		t.Fatal("call counter dead")
	}
}

func TestOSHostSandboxEscapesRejected(t *testing.T) {
	h := newOSHost(t)
	// Plant a file *outside* the sandbox; traversal names must not reach it.
	outside := filepath.Join(filepath.Dir(h.Root()), "secret")
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"../secret",
		"../../etc/passwd",
		"/etc/passwd",
		"sub/../../secret",
	} {
		rep, err := h.Syscall(SyscallRequest{
			Num:  SysOpen,
			Args: [4]int64{0, 0, FlagRead, 0},
			Name: name,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errno == ErrnoNone {
			// Resolvable inside the sandbox is fine only if it does not
			// leak the outside file.
			resolved, rerr := h.resolve(name)
			if rerr == nil && !strings.HasPrefix(resolved, h.Root()+string(filepath.Separator)) {
				t.Fatalf("name %q escaped to %q", name, resolved)
			}
			if rerr == nil {
				data, _ := os.ReadFile(resolved)
				if string(data) == "secret" {
					t.Fatalf("name %q read the outside file", name)
				}
			}
		}
	}
}

func TestOSHostResolveConfinement(t *testing.T) {
	h := newOSHost(t)
	cases := []string{"a", "a/b/c", "../x", "./../../x", "/abs/path", "a/../../b"}
	for _, name := range cases {
		got, err := h.resolve(name)
		if err != nil {
			continue
		}
		if got != h.Root() && !strings.HasPrefix(got, h.Root()+string(filepath.Separator)) {
			t.Fatalf("resolve(%q) = %q escapes root %q", name, got, h.Root())
		}
	}
	if _, err := h.resolve(""); err == nil {
		t.Fatal("empty name resolved")
	}
	if _, err := h.resolve("a\x00b"); err == nil {
		t.Fatal("NUL name resolved")
	}
}

func TestOSHostMissingFileErrno(t *testing.T) {
	h := newOSHost(t)
	rep, err := h.Syscall(SyscallRequest{
		Num: SysOpen, Args: [4]int64{0, 0, FlagRead, 0}, Name: "missing",
	})
	if err != nil || rep.Errno != ErrnoNoEnt {
		t.Fatalf("rep = %+v err %v", rep, err)
	}
	rep, err = h.Syscall(SyscallRequest{
		Num: SysRead, Args: [4]int64{3, 0, 10, 0}, Name: "missing",
	})
	if err != nil || rep.Errno != ErrnoNoEnt {
		t.Fatalf("read rep = %+v err %v", rep, err)
	}
}

func TestOSHostSeek(t *testing.T) {
	h := newOSHost(t)
	if err := os.WriteFile(filepath.Join(h.Root(), "f"), []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off, whence, cur, want int64
		wantErrno              int64
	}{
		{5, 0, 0, 5, ErrnoNone},
		{2, 1, 3, 5, ErrnoNone},
		{-4, 2, 0, 6, ErrnoNone},
		{-20, 0, 0, 0, ErrnoInval},
		{0, 9, 0, 0, ErrnoInval},
	}
	for _, tc := range cases {
		rep, err := h.Syscall(SyscallRequest{
			Num: SysSeek, Args: [4]int64{3, tc.off, tc.whence, tc.cur}, Name: "f",
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errno != tc.wantErrno {
			t.Fatalf("seek(%d,%d) errno = %d want %d", tc.off, tc.whence, rep.Errno, tc.wantErrno)
		}
		if tc.wantErrno == ErrnoNone && rep.Ret != tc.want {
			t.Fatalf("seek(%d,%d) = %d want %d", tc.off, tc.whence, rep.Ret, tc.want)
		}
	}
}

func TestOSHostTimeAdvances(t *testing.T) {
	h := newOSHost(t)
	rep, err := h.Syscall(SyscallRequest{Num: SysTime})
	if err != nil || rep.Ret <= 0 {
		t.Fatalf("time = %+v err %v", rep, err)
	}
}

// TestOSHostReadClampsCount: the read count arrives from the exec side,
// so a huge one must yield the file's bytes, not a panic or an
// allocation of that size.
func TestOSHostReadClampsCount(t *testing.T) {
	h := newOSHost(t)
	if err := os.WriteFile(filepath.Join(h.Root(), "f"), []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off  int64
		want string
	}{{4, "456789"}, {10, ""}, {1 << 40, ""}} {
		rep, err := h.Syscall(SyscallRequest{Num: SysRead, Args: [4]int64{3, tc.off, 1 << 62, 0}, Name: "f"})
		if err != nil || rep.Errno != ErrnoNone || rep.Ret != int64(len(tc.want)) || string(rep.Data) != tc.want {
			t.Fatalf("read at %d = %+v err %v, want %q", tc.off, rep, err, tc.want)
		}
	}
}
