package cvm

import (
	"bytes"
	"math"
	"testing"
)

func memWrite(t *testing.T, h *MemHost, name string, off int64, data []byte) {
	t.Helper()
	rep, err := h.Syscall(SyscallRequest{Num: SysWrite, Name: name, Args: [4]int64{0, off}, Data: data})
	if err != nil || rep.Ret != int64(len(data)) {
		t.Fatalf("write %d bytes at %d: ret %d errno %d err %v", len(data), off, rep.Ret, rep.Errno, err)
	}
}

// TestMemHostWriteGrowth pins MemHost.write's contract across the three
// shapes a guest produces: appends, a write past the end (the hole reads
// as zeros) and an overwrite inside the file.
func TestMemHostWriteGrowth(t *testing.T) {
	h := NewMemHost()
	var want []byte
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, 64)
		memWrite(t, h, "f", int64(len(want)), chunk)
		want = append(want, chunk...)
	}
	memWrite(t, h, "f", int64(len(want))+10, []byte("tail"))
	want = append(append(want, make([]byte, 10)...), "tail"...)
	memWrite(t, h, "f", 5, []byte("mid"))
	copy(want[5:], "mid")
	if got, _ := h.File("f"); !bytes.Equal(got, want) {
		t.Fatalf("file differs from the reference after appends, a hole and an overwrite")
	}
}

// TestMemHostAppendsAmortized fails if write goes back to reallocating
// the whole file on every append: 4096 appends of 64 bytes would then
// move the file 4096 times, against the couple of dozen moves of
// geometric growth.
func TestMemHostAppendsAmortized(t *testing.T) {
	h := NewMemHost()
	chunk := make([]byte, 64)
	moves := 0
	var base *byte
	for i := 0; i < 4096; i++ {
		memWrite(t, h, "f", int64(i*len(chunk)), chunk)
		if b := &h.files["f"][0]; b != base {
			base = b
			moves++
		}
	}
	if moves > 64 {
		t.Fatalf("4096 appends moved the file %d times; want geometric growth (≤ 64)", moves)
	}
}

// TestMemHostRefusesWildOffsets: a guest can seek anywhere, so a write
// far past the end, or at MaxInt64 where the end wraps negative, is
// refused with ErrnoInval rather than allocated or panicked on.
func TestMemHostRefusesWildOffsets(t *testing.T) {
	h := NewMemHost()
	for _, off := range []int64{4097, 1 << 40, math.MaxInt64} {
		rep, err := h.Syscall(SyscallRequest{Num: SysWrite, Name: "f", Args: [4]int64{0, off}, Data: []byte("x")})
		if err != nil || rep.Errno != ErrnoInval {
			t.Fatalf("write at %d: ret %d errno %d err %v", off, rep.Ret, rep.Errno, err)
		}
	}
	if got, _ := h.File("f"); len(got) != 0 {
		t.Fatalf("refused writes left %d bytes", len(got))
	}
}
