package cost

import (
	"math"
	"testing"
	"time"
)

func TestPaperConstants(t *testing.T) {
	m := Paper()
	if m.PlacePerMB != 5*time.Second {
		t.Fatalf("PlacePerMB = %v", m.PlacePerMB)
	}
	if m.RemoteSyscall != 10*time.Millisecond {
		t.Fatalf("RemoteSyscall = %v", m.RemoteSyscall)
	}
}

func TestTransferCostHalfMegabyte(t *testing.T) {
	m := Paper()
	// The paper's average: ½ MB → ≈2.5 s.
	got := m.TransferCost(512 * 1024)
	if got != 2500*time.Millisecond {
		t.Fatalf("transfer(0.5MB) = %v, want 2.5s", got)
	}
	if m.TransferCost(0) != 0 || m.TransferCost(-5) != 0 {
		t.Fatal("non-positive sizes must cost nothing")
	}
}

func TestSyscallCost(t *testing.T) {
	m := Paper()
	if got := m.SyscallCost(100); got != time.Second {
		t.Fatalf("100 syscalls = %v, want 1s", got)
	}
	if m.SyscallCost(0) != 0 || m.SyscallCost(-1) != 0 {
		t.Fatal("non-positive counts must cost nothing")
	}
}

func TestLeverage(t *testing.T) {
	// 1 hour remote for 2.77 s local ≈ 1300 (the paper's average).
	remote := time.Hour
	local := 2770 * time.Millisecond
	lev := Leverage(remote, local)
	if math.Abs(lev-1300) > 5 {
		t.Fatalf("leverage = %v, want ≈1300", lev)
	}
	if Leverage(0, time.Second) != 0 {
		t.Fatal("no remote work must mean zero leverage")
	}
	if Leverage(time.Hour, 0) != inf {
		t.Fatal("free remote capacity should be +inf leverage")
	}
	if Leverage(time.Second, 2*time.Second) >= 1 {
		t.Fatal("leverage below 1 when local exceeds remote")
	}
}
