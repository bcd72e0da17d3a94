package hotspot

import (
	"testing"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
)

// BenchmarkYoungGCCopy measures the copying young collector under a
// sliding-window liveness pattern: every iteration allocates a batch
// of small objects of which half survive into the next iteration, so
// each young GC scavenges eden with a realistic survivor fraction —
// the adjacent-object copy storm the CopyBatch bulk touches batch up.
func BenchmarkYoungGCCopy(b *testing.B) {
	m := osmem.NewMachine()
	as := m.NewAddressSpace("jvm")
	h, err := New(runtime.Config{AddressSpace: as, MemoryBudget: 256 * mb})
	if err != nil {
		b.Fatal(err)
	}

	const objSize = 8 * kb
	ring := make([]mm.Ref, 256)
	for i := range ring {
		ring[i] = mm.NoRef
	}
	idx := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2048; j++ {
			o, err := h.Allocate(objSize, runtime.AllocOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if j%2 == 0 {
				if old := ring[idx]; old != mm.NoRef {
					h.Pool.At(old).Dead = true
				}
				ring[idx] = o
				idx = (idx + 1) % len(ring)
			} else {
				h.Pool.At(o).Dead = true
			}
		}
	}
	b.StopTimer()
	if h.Stats().YoungGCs == 0 {
		b.Fatal("no young GC ran; the benchmark measured nothing")
	}
}
