//go:build unix

package engine

import (
	"fmt"
	"runtime"
	"testing"
)

// TestStoreBlobsOffHeapSoak: a memory-only store's blobs live outside
// the Go heap. Twice the budget of Table-I checkpoints leaves the live
// heap where it was, and the mapped bytes stay within the budget plus
// one spare; with heap-resident blobs the heap grew by the budget.
func TestStoreBlobsOffHeapSoak(t *testing.T) {
	const cell = 543 << 10 // one Table-I checkpoint
	st := newMemStore(t)
	data := make([]byte, cell)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 2*memBlobBudget/cell; i++ {
		if err := st.PutBlob(fmt.Sprintf("h%04d", i), data); err != nil {
			t.Fatal(err)
		}
		if got := mappedBytes(t, st); got > memBlobBudget+cell {
			t.Fatalf("after put %d, %d bytes mapped, over the budget plus one spare", i, got)
		}
	}
	after := heap()
	t.Logf("heap %d B before, %d B after; %d B mapped", before, after, mappedBytes(t, st))
	if after > before+8<<20 {
		t.Fatalf("heap grew from %d to %d B over %d B of blobs", before, after, 2*memBlobBudget)
	}
	runtime.KeepAlive(st)
}
