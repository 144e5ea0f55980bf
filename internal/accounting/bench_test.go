package accounting

import (
	"testing"
	"time"
)

// BenchmarkAccountingSyscall measures the per-syscall accounting hot
// path (three atomic adds). Committed to BENCH_baseline.json; must stay
// 0 allocs/op.
func BenchmarkAccountingSyscall(b *testing.B) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Syscall(128, 250*time.Microsecond)
	}
}

// BenchmarkAccountingSyscallParallel is the same path under contention,
// the shape a busy shadow pool produces.
func BenchmarkAccountingSyscallParallel(b *testing.B) {
	l := NewLedger()
	m := l.Job("wsA/1", "alice", "wsA")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Syscall(128, 250*time.Microsecond)
		}
	})
}

// BenchmarkLedgerSnapshot bounds the cost of rendering a View with a
// realistic number of live jobs (what an AccountingRequest pays).
func BenchmarkLedgerSnapshot(b *testing.B) {
	l := NewLedger()
	for i := 0; i < 100; i++ {
		m := l.Job("ws/"+string(rune('a'+i%26))+string(rune('0'+i/26)), "user", "ws")
		m.ObserveSteps(uint64(i) * 1000)
		m.Syscall(64, time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Snapshot()
	}
}
