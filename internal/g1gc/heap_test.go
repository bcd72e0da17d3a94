package g1gc

import (
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
	h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("g1"), MemoryBudget: budget})
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
	as := m.NewAddressSpace("g1")
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

func TestRegionGeometry(t *testing.T) {
	h := newHeap(t, 256*mb)
	wantRegions := int(256 * mb * 85 / 100 / RegionSize)
	if len(h.regions) != wantRegions {
		t.Fatalf("regions: %d want %d", len(h.regions), wantRegions)
	}
	counts := h.RegionCounts()
	if counts["free"] != wantRegions {
		t.Fatalf("fresh heap not all free: %v", counts)
	}
	if h.ResidentBytes() != 0 {
		t.Fatal("fresh heap resident")
	}
}

func TestAllocateAndYoungCollect(t *testing.T) {
	h := newHeap(t, 256*mb)
	keep := mustAlloc(t, h, 64*kb)
	for i := 0; i < 2000; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().YoungGCs == 0 {
		t.Fatal("no young collections")
	}
	if h.LiveBytes() != h.Pool.At(keep).Size {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	// Eden stays bounded by the young target.
	maxEden := int(float64(len(h.regions)) * youngTargetFraction)
	if len(h.eden) > maxEden+1 {
		t.Fatalf("eden unbounded: %d regions", len(h.eden))
	}
}

func TestSurvivorPromotion(t *testing.T) {
	h := newHeap(t, 256*mb)
	keep := mustAlloc(t, h, 512*kb)
	for i := 0; i < 4000; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().PromotedBytes < h.Pool.At(keep).Size {
		t.Fatal("long-lived object never promoted to old")
	}
	var inOld bool
	for _, r := range h.old {
		for _, o := range r.objects {
			if o == keep {
				inOld = true
			}
		}
	}
	if !inOld {
		t.Fatal("survivor not found in an old region")
	}
}

func TestMixedCollectionsReclaimOldGarbage(t *testing.T) {
	h := newHeap(t, 64*mb) // small heap so IHOP trips
	// Build old regions holding a mix of long-lived objects and
	// garbage, then kill everything.
	var objs []mm.Ref
	for i := 0; i < 2300; i++ {
		o := mustAlloc(t, h, 64*kb)
		if i%8 == 0 {
			objs = append(objs, o) // ~18MB long-lived, ages into old
		} else {
			h.Pool.At(o).Dead = true
		}
	}
	for _, o := range objs {
		h.Pool.At(o).Dead = true
	}
	// Keep allocating: occupancy crosses IHOP, marking completes, and
	// mixed collections must drain the old garbage instead of OOMing.
	for i := 0; i < 3000; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().FullGCs == 0 {
		t.Fatal("no mixed/major cycles despite old-region garbage")
	}
	if h.LiveBytes() > 2*mb {
		t.Fatalf("old garbage piling up: live=%d", h.LiveBytes())
	}
}

func TestHumongousLifecycle(t *testing.T) {
	h := newHeap(t, 256*mb)
	o := mustAlloc(t, h, 5*mb) // spans 3 regions
	counts := h.RegionCounts()
	if counts["humongous"] != 3 {
		t.Fatalf("humongous regions: %d", counts["humongous"])
	}
	if h.LiveBytes() != 5*mb {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	h.Pool.At(o).Dead = true
	h.CollectFull(false)
	if h.RegionCounts()["humongous"] != 0 {
		t.Fatal("humongous run not swept")
	}
	if h.LiveBytes() != 0 {
		t.Fatal("humongous object survived")
	}
}

func TestFreeRegionsStayResidentUntilReclaim(t *testing.T) {
	// The frozen-garbage mechanism on G1: emptied regions return to
	// the free list but their pages stay resident.
	h := newHeap(t, 256*mb)
	static := mustAlloc(t, h, 1*mb)
	for i := 0; i < 2000; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	h.CollectFull(false)
	resident := h.ResidentBytes()
	if resident < 4*h.LiveBytes() {
		t.Fatalf("expected resident free regions: resident=%d live=%d", resident, h.LiveBytes())
	}
	rep := h.Reclaim(false)
	if rep.ReleasedBytes <= 0 {
		t.Fatal("nothing released")
	}
	after := h.ResidentBytes()
	if slack := after - h.Pool.At(static).Size; slack < 0 || slack > 32*osmem.PageSize {
		t.Fatalf("after reclaim: resident=%d live=%d", after, h.Pool.At(static).Size)
	}
	if rep.LiveBytes != h.Pool.At(static).Size {
		t.Fatalf("report live: %d", rep.LiveBytes)
	}
}

func TestReclaimKeepsHeapUsable(t *testing.T) {
	h := newHeap(t, 256*mb)
	mustAlloc(t, h, 256*kb)
	h.Reclaim(false)
	if h.DrainGCCost() != 0 {
		t.Fatal("reclaim left cost billed to mutator")
	}
	o := mustAlloc(t, h, 256*kb)
	if o == mm.NoRef || h.LiveBytes() != 512*kb {
		t.Fatalf("post-reclaim allocation broken: %d", h.LiveBytes())
	}
}

func TestAggressiveClearsWeak(t *testing.T) {
	h := newHeap(t, 256*mb)
	w, err := h.Allocate(512*kb, runtime.AllocOptions{Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	h.CollectFull(false)
	if h.LiveBytes() != h.Pool.At(w).Size {
		t.Fatal("normal GC cleared weak object")
	}
	h.CollectFull(true)
	if h.LiveBytes() != 0 {
		t.Fatal("aggressive GC kept weak object")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := newHeap(t, 8*mb)
	count := 0
	for {
		o, err := h.Allocate(512*kb, runtime.AllocOptions{})
		if err == runtime.ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		_ = o
		count++
		if count > 100 {
			t.Fatal("no OOM on an 8MB heap with live data")
		}
	}
	if count == 0 {
		t.Fatal("OOM before any allocation")
	}
}

func TestHumongousTooBigFails(t *testing.T) {
	h := newHeap(t, 16*mb)
	if _, err := h.Allocate(64*mb, runtime.AllocOptions{}); err != runtime.ErrOutOfMemory {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestCollectionSetPrefersGarbageRichRegions(t *testing.T) {
	h := newHeap(t, 256*mb)
	// Construct two old regions by hand: one nearly all garbage, one
	// nearly all live.
	mkOld := func(liveFrac float64) *region {
		r := h.takeFree(regionOld)
		h.old = append(h.old, r)
		total := int64(RegionSize * 3 / 4)
		liveBytes := int64(float64(total) * liveFrac)
		h.place(r, h.Pool.New(liveBytes, false))
		dead := h.Pool.New(total-liveBytes, false)
		h.Pool.At(dead).Dead = true
		h.place(r, dead)
		return r
	}
	garbageRich := mkOld(0.1)
	liveRich := mkOld(0.9)
	cands := h.mixedCandidates()
	if len(cands) == 0 || cands[0] != garbageRich {
		t.Fatalf("candidates: %v", cands)
	}
	for _, c := range cands {
		if c == liveRich {
			t.Fatal("live-rich region selected for mixed collection")
		}
	}
}

func TestStringerAndCounts(t *testing.T) {
	h := newHeap(t, 64*mb)
	mustAlloc(t, h, 64*kb)
	if h.String() == "" {
		t.Fatal("empty String")
	}
	counts := h.RegionCounts()
	if counts["eden"] != 1 {
		t.Fatalf("counts: %v", counts)
	}
	if regionKind(99).String() != "kind(?)" {
		t.Fatal("unknown kind string")
	}
}

// TestTinyBudgetFails: a budget whose heap holds fewer than two
// regions is an error from New and runtime.New; the smallest budget
// that holds two builds.
func TestTinyBudgetFails(t *testing.T) {
	m := osmem.NewMachine()
	tiny := runtime.Config{AddressSpace: m.NewAddressSpace("g1"), MemoryBudget: 4 * mb}
	if h, err := New(tiny); err == nil || h != nil {
		t.Fatalf("New(4 MiB budget) = %v, %v; want an error", h, err)
	}
	if rt, err := runtime.New(RuntimeName, tiny); err == nil || rt != nil {
		t.Fatalf("runtime.New(4 MiB budget) = %v, %v; want an error", rt, err)
	}
	h := newHeap(t, 5*mb)
	if len(h.regions) != 2 {
		t.Fatalf("5 MiB budget: %d regions, want 2", len(h.regions))
	}
}

// Property: live accounting matches the caller's view and region
// bookkeeping stays consistent under arbitrary allocate/kill
// interleavings.
func TestG1Invariants(t *testing.T) {
	f := func(ops []uint8) bool {
		h := newHeapQuick()
		var live []mm.Ref
		var want int64
		for _, op := range ops {
			if op%4 == 3 && len(live) > 0 {
				h.Pool.At(live[0]).Dead = true
				want -= h.Pool.At(live[0]).Size
				live = live[1:]
				continue
			}
			size := int64(op%60+1) * 16 * kb
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
		// Role lists and region kinds agree.
		counts := h.RegionCounts()
		if counts["eden"] != len(h.eden) || counts["survivor"] != len(h.survivors) ||
			counts["old"] != len(h.old) || counts["free"] != len(h.free) {
			return false
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		return total == len(h.regions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func newHeapQuick() *Heap {
	m := osmem.NewMachine()
	h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("g1"), MemoryBudget: 128 * mb})
	if err != nil {
		panic(err)
	}
	return h
}

// TestRecycleSafety checks the object pool's ownership rule against
// every collector that frees objects: evacuation, evacuation failure
// and the humongous sweep.
func TestRecycleSafety(t *testing.T) {
	runtimetest.CheckRecycling(t, 3*mb, 16*mb, func() runtimetest.Heap {
		h := newHeap(t, 32*mb)
		return runtimetest.Heap{Model: h, Language: runtime.Java, Listed: func(f func(mm.Ref)) {
			for _, r := range h.regions {
				for _, o := range r.objects {
					f(o)
				}
			}
		}}
	})
}
