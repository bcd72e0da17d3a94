package pyarena

import (
	"errors"
	"testing"
	"testing/quick"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/runtime/runtimetest"
)

const mb = int64(1) << 20
const kb = int64(1) << 10

func newHeap(t *testing.T, budget int64) *Heap {
	t.Helper()
	m := osmem.NewMachine()
	h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("py"), MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustAlloc(t *testing.T, h *Heap, size int64) mm.Ref {
	t.Helper()
	o, err := h.Allocate(size, runtime.AllocOptions{})
	if err != nil {
		t.Fatalf("Allocate(%d): %v", size, err)
	}
	return o
}

func TestRegistryIntegration(t *testing.T) {
	m := osmem.NewMachine()
	as := m.NewAddressSpace("py")
	rt, err := runtime.New(RuntimeName, runtime.Config{
		AddressSpace: as, MemoryBudget: 256 * mb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.(*Heap); !ok {
		t.Fatalf("%s built a %T", RuntimeName, rt)
	}
}

func TestAllocateReusesFreedBlocks(t *testing.T) {
	h := newHeap(t, 64*mb)
	a := mustAlloc(t, h, 16*kb)
	b := mustAlloc(t, h, 16*kb)
	if h.MappedArenas() != 1 {
		t.Fatalf("arenas: %d", h.MappedArenas())
	}
	h.Pool.At(a).Dead = true
	h.CollectFull(false)
	// The freed block's slot is reused by the next allocation.
	c := mustAlloc(t, h, 8*kb)
	if h.Pool.At(c).Offset != 0 {
		t.Fatalf("free slot not reused: offset %d", h.Pool.At(c).Offset)
	}
	_ = b
}

func TestArenaReleasedOnlyWhenEmpty(t *testing.T) {
	h := newHeap(t, 64*mb)
	var objs []mm.Ref
	// Fill ~3 arenas.
	for i := 0; i < 45; i++ {
		objs = append(objs, mustAlloc(t, h, 16*kb))
	}
	if h.MappedArenas() < 3 {
		t.Fatalf("arenas: %d", h.MappedArenas())
	}
	// Kill everything except one object per arena boundary.
	for i, o := range objs {
		if i%16 != 0 {
			h.Pool.At(o).Dead = true
		}
	}
	h.CollectFull(false)
	if h.MappedArenas() < 3 {
		t.Fatal("pinned arenas were released")
	}
	// Now kill the pins: whole arenas go back to the OS.
	for _, o := range objs {
		h.Pool.At(o).Dead = true
	}
	h.CollectFull(false)
	if h.MappedArenas() != 0 {
		t.Fatalf("empty arenas kept: %d", h.MappedArenas())
	}
	if h.ResidentBytes() != 0 {
		t.Fatalf("resident after full release: %d", h.ResidentBytes())
	}
}

func TestGCThresholdTriggersCollection(t *testing.T) {
	h := newHeap(t, 64*mb)
	for i := 0; i < gcThreshold+10; i++ {
		o := mustAlloc(t, h, 4*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().FullGCs == 0 {
		t.Fatal("threshold GC never fired")
	}
}

func TestReclaimReleasesFragmentedFreePages(t *testing.T) {
	h := newHeap(t, 64*mb)
	var objs []mm.Ref
	for i := 0; i < 60; i++ {
		objs = append(objs, mustAlloc(t, h, 12*kb))
	}
	// Kill 5 of every 6, leaving every arena pinned.
	for i, o := range objs {
		if i%6 != 0 {
			h.Pool.At(o).Dead = true
		}
	}
	h.CollectFull(false)
	pinnedResident := h.ResidentBytes()
	if pinnedResident < 3*h.LiveBytes() {
		t.Fatalf("setup failed: resident=%d live=%d", pinnedResident, h.LiveBytes())
	}
	rep := h.Reclaim(false)
	if rep.ReleasedBytes <= 0 {
		t.Fatal("nothing released")
	}
	after := h.ResidentBytes()
	if after >= pinnedResident {
		t.Fatal("reclaim did not reduce residency")
	}
	// Live data intact, heap usable.
	if rep.LiveBytes != h.LiveBytes() {
		t.Fatal("live mismatch")
	}
	mustAlloc(t, h, 12*kb)
}

func TestWeakObjects(t *testing.T) {
	h := newHeap(t, 64*mb)
	w, err := h.Allocate(32*kb, runtime.AllocOptions{Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	h.CollectFull(false)
	if h.LiveBytes() != h.Pool.At(w).Size {
		t.Fatal("weak object cleared by normal GC")
	}
	h.CollectFull(true)
	if h.LiveBytes() != 0 {
		t.Fatal("weak object survived aggressive GC")
	}
}

func TestOversizedAllocationFails(t *testing.T) {
	h := newHeap(t, 64*mb)
	_, err := h.Allocate(ArenaSize+1, runtime.AllocOptions{})
	if !errors.Is(err, runtime.ErrOutOfMemory) {
		t.Fatalf("err: %v", err)
	}
}

func TestOutOfMemoryAtLimit(t *testing.T) {
	h := newHeap(t, 2*mb) // ~1.7MB usable = 6 arenas
	count := 0
	for {
		_, err := h.Allocate(200*kb, runtime.AllocOptions{})
		if errors.Is(err, runtime.ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
		if count > 40 {
			t.Fatal("no OOM")
		}
	}
	if count == 0 {
		t.Fatal("OOM immediately")
	}
}

// TestTinyBudgetFails: a budget whose heap cannot hold one arena is an
// error from New and runtime.New; a budget that holds one builds.
func TestTinyBudgetFails(t *testing.T) {
	m := osmem.NewMachine()
	tiny := runtime.Config{AddressSpace: m.NewAddressSpace("py"), MemoryBudget: ArenaSize}
	if h, err := New(tiny); err == nil || h != nil {
		t.Fatalf("New(one-arena budget) = %v, %v; want an error", h, err)
	}
	if rt, err := runtime.New(RuntimeName, tiny); err == nil || rt != nil {
		t.Fatalf("runtime.New(one-arena budget) = %v, %v; want an error", rt, err)
	}
	h := newHeap(t, 2*ArenaSize)
	mustAlloc(t, h, ArenaSize)
}

func TestStringer(t *testing.T) {
	h := newHeap(t, 64*mb)
	mustAlloc(t, h, 4*kb)
	if h.String() == "" {
		t.Fatal("empty String")
	}
	if h.HeapCommitted() != ArenaSize {
		t.Fatalf("committed: %d", h.HeapCommitted())
	}
	if va, l := h.HeapRange(); va == 0 || l == 0 {
		t.Fatal("heap range")
	}
	if h.ConsumeDeoptPenalty() != 0 {
		t.Fatal("python deopt")
	}
}

// Property: live accounting is exact and no two live objects in an
// arena overlap, under arbitrary allocate/kill interleavings.
func TestArenaInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		m := osmem.NewMachine()
		h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("py"), MemoryBudget: 32 * mb})
		if err != nil {
			return false
		}
		var live []mm.Ref
		var want int64
		for _, op := range ops {
			if op%3 == 2 && len(live) > 0 {
				h.Pool.At(live[0]).Dead = true
				want -= h.Pool.At(live[0]).Size
				live = live[1:]
				continue
			}
			size := int64(op%32+1) * kb
			o, err := h.Allocate(size, runtime.AllocOptions{})
			if err != nil {
				return false
			}
			live = append(live, o)
			want += size
		}
		if h.LiveBytes() != want {
			return false
		}
		for _, a := range h.arenas {
			var cursor int64 = -1
			for _, o := range a.objects {
				if h.Pool.At(o).Offset < cursor {
					return false // overlap
				}
				cursor = h.Pool.At(o).Offset + h.Pool.At(o).Size
				if cursor > ArenaSize {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleSafety checks the object pool's ownership rule against
// the arena sweep.
func TestRecycleSafety(t *testing.T) {
	runtimetest.CheckRecycling(t, ArenaSize, 4*mb, func() runtimetest.Heap {
		h := newHeap(t, 16*mb)
		return runtimetest.Heap{Model: h, Language: "python", Listed: func(f func(mm.Ref)) {
			for _, a := range h.arenas {
				for _, o := range a.objects {
					f(o)
				}
			}
		}}
	})
}
