package journal

import (
	"testing"
)

// BenchmarkJournalAppend measures one synced state write of 256 bytes.
func BenchmarkJournalAppend(b *testing.B) {
	j, _, err := Open(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := make([]byte, 256)
	for i := range rec {
		rec[i] = byte(i)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
