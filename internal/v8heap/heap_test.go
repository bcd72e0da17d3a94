package v8heap

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/runtime/runtimetest"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

const mb = 1 << 20
const kb = 1 << 10

func newHeap(t *testing.T, budget int64) (*osmem.Machine, *Heap) {
	t.Helper()
	m := osmem.NewMachine()
	h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("node"), MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return m, h
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
	as := m.NewAddressSpace("node")
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

func TestDefaultConfigScalesYoungWithBudget(t *testing.T) {
	// §3.3: the young generation ceiling New derives from the budget
	// scales with the heap — 32MB total for 256MB, 128MB total for 1GB.
	if _, h := newHeap(t, 256*mb); h.semiMax != 16*mb {
		t.Fatalf("256MB semispace max: %d", h.semiMax)
	}
	if _, h := newHeap(t, 1024*mb); h.semiMax != 64*mb {
		t.Fatalf("1GB semispace max: %d", h.semiMax)
	}
}

func TestChunkConstants(t *testing.T) {
	if ChunkSize != 256*kb || ChunkHeaderSize != 4*kb {
		t.Fatal("chunk geometry diverged from the paper")
	}
	// "unmapping other pages in the chunk already releases most memory
	// resources (98.4%)"
	frac := float64(ChunkUsable) / float64(ChunkSize)
	if frac < 0.983 || frac > 0.985 {
		t.Fatalf("releasable fraction: %v", frac)
	}
}

func TestAllocateSmall(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	o := mustAlloc(t, h, 10*kb)
	if h.Pool.At(o).Offset < ChunkHeaderSize {
		t.Fatalf("object placed in chunk header: %d", h.Pool.At(o).Offset)
	}
	if h.LiveBytes() != 10*kb {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	if h.HeapCommitted() < ChunkSize {
		t.Fatalf("committed: %d", h.HeapCommitted())
	}
}

func TestScavengeCollectsDeadAndPromotesSurvivors(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	keep := mustAlloc(t, h, 32*kb)
	for i := 0; i < 300; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().YoungGCs == 0 {
		t.Fatal("no scavenges despite churn")
	}
	if h.LiveBytes() != h.Pool.At(keep).Size {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	if h.Stats().PromotedBytes < h.Pool.At(keep).Size {
		t.Fatal("survivor never promoted")
	}
}

func TestYoungDoublingUnderHighAllocationRate(t *testing.T) {
	// The fft pathology: allocation-heavy workloads with a working set
	// that survives scavenges ratchet the young generation up, and
	// eager GC never shrinks it back.
	_, h := newHeap(t, 256*mb)
	start := h.YoungGenerationBytes()

	// Simulate a working-set window: objects stay live across a few
	// scavenges, then die.
	var window []mm.Ref
	for i := 0; i < 3000; i++ {
		o := mustAlloc(t, h, 32*kb)
		window = append(window, o)
		if len(window) > 100 {
			h.Pool.At(window[0]).Dead = true
			window = window[1:]
		}
	}
	grown := h.YoungGenerationBytes()
	if grown <= start {
		t.Fatalf("young generation never doubled: %d", grown)
	}

	// Eager full GC right after heavy allocation: the shrink is gated
	// on a low allocation rate, so the generation must stay large.
	h.CollectFull(false)
	if h.YoungGenerationBytes() != grown {
		t.Fatalf("young shrank despite high allocation rate: %d -> %d",
			grown, h.YoungGenerationBytes())
	}
}

func TestYoungShrinksWhenAllocationRateLow(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	var window []mm.Ref
	for i := 0; i < 3000; i++ {
		o := mustAlloc(t, h, 32*kb)
		window = append(window, o)
		if len(window) > 100 {
			h.Pool.At(window[0]).Dead = true
			window = window[1:]
		}
	}
	for _, o := range window {
		h.Pool.At(o).Dead = true
	}
	grown := h.YoungGenerationBytes()
	// First full GC resets the allocation counter (rate still high);
	// the second sees a quiet mutator and may shrink.
	h.CollectFull(false)
	h.CollectFull(false)
	if h.YoungGenerationBytes() >= grown {
		t.Fatalf("young did not shrink at low allocation rate: %d", h.YoungGenerationBytes())
	}
}

func TestOldSweepReleasesEmptyChunks(t *testing.T) {
	m, h := newHeap(t, 256*mb)
	// Push data into old space via large objects.
	var objs []mm.Ref
	for i := 0; i < 20; i++ {
		objs = append(objs, mustAlloc(t, h, 200*kb))
	}
	committed := h.old.committedBytes()
	if committed == 0 {
		t.Fatal("large objects did not go to old space")
	}
	for _, o := range objs {
		h.Pool.At(o).Dead = true
	}
	h.CollectFull(false)
	if h.old.committedBytes() != 0 {
		t.Fatalf("empty chunks not released: %d", h.old.committedBytes())
	}
	_ = m
}

func TestFragmentationSurvivesReclaim(t *testing.T) {
	// Mark-sweep leaves fragmented free memory: kill every other small
	// object in an old chunk and verify some pages stay resident even
	// after Reclaim.
	_, h := newHeap(t, 256*mb)
	// Allocate pairs straight into old space (via the heap's promote
	// path is noisy, so use the space directly).
	var objs []mm.Ref
	for i := 0; i < 60; i++ {
		o := h.Pool.New(3*kb, false)
		if h.old.tryAllocate(o) != mm.NoRef {
			t.Fatal("old allocation failed")
		}
		objs = append(objs, o)
	}
	for i, o := range objs {
		if i%2 == 0 {
			h.Pool.At(o).Dead = true
		}
	}
	h.Reclaim(false)
	live := h.LiveBytes()
	resident := h.ResidentBytes()
	if resident <= live {
		t.Fatalf("expected fragmentation overhead: resident=%d live=%d", resident, live)
	}
}

func TestReclaimReleasesFreePages(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	static := mustAlloc(t, h, 180*kb) // large object, pinned in old space
	var window []mm.Ref
	for i := 0; i < 2000; i++ {
		o := mustAlloc(t, h, 32*kb)
		window = append(window, o)
		if len(window) > 50 {
			h.Pool.At(window[0]).Dead = true
			window = window[1:]
		}
	}
	for _, o := range window {
		h.Pool.At(o).Dead = true
	}
	before := h.ResidentBytes()
	rep := h.Reclaim(false)
	after := h.ResidentBytes()
	if rep.ReleasedBytes <= 0 || after >= before {
		t.Fatalf("reclaim released nothing: before=%d after=%d", before, after)
	}
	if rep.LiveBytes != h.Pool.At(static).Size {
		t.Fatalf("live: %d want %d", rep.LiveBytes, h.Pool.At(static).Size)
	}
	// Headers stay: resident is live + chunk headers + fragmentation,
	// but within a small multiple of live.
	if after > h.Pool.At(static).Size+int64(h.arena.inUse+4)*ChunkHeaderSize+64*kb {
		t.Fatalf("reclaim left too much resident: %d (live=%d chunks=%d)",
			after, h.Pool.At(static).Size, h.arena.inUse)
	}
}

func TestReclaimKeepsHeapUsable(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	mustAlloc(t, h, 40*kb)
	h.Reclaim(false)
	o := mustAlloc(t, h, 40*kb)
	if o == mm.NoRef || h.LiveBytes() != 80*kb {
		t.Fatalf("post-reclaim allocation broken: %d", h.LiveBytes())
	}
}

func TestWeakObjectsAndDeoptPenalty(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	w, err := h.Allocate(150*kb, runtime.AllocOptions{Weak: true})
	if err != nil {
		t.Fatal(err)
	}
	// Non-aggressive collection keeps the weak object, no penalty.
	h.CollectFull(false)
	if h.LiveBytes() != h.Pool.At(w).Size {
		t.Fatal("non-aggressive GC cleared weak object")
	}
	if h.ConsumeDeoptPenalty() != 0 {
		t.Fatal("penalty without aggressive GC")
	}
	// Aggressive collection clears it and records the penalty.
	h.CollectFull(true)
	if h.LiveBytes() != 0 {
		t.Fatal("aggressive GC kept weak object")
	}
	if got := h.ConsumeDeoptPenalty(); got != float64(h.Pool.At(w).Size) {
		t.Fatalf("penalty: %v want %v", got, float64(h.Pool.At(w).Size))
	}
	if h.ConsumeDeoptPenalty() != 0 {
		t.Fatal("penalty not consumed")
	}
}

func TestLargeObjectLifecycle(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	o := mustAlloc(t, h, 600*kb) // spans 3 chunks
	if h.old.committedBytes() < 3*ChunkSize {
		t.Fatalf("LO committed: %d", h.old.committedBytes())
	}
	if h.LiveBytes() != 600*kb {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	h.Pool.At(o).Dead = true
	h.CollectFull(false)
	if h.LiveBytes() != 0 || h.old.committedBytes() != 0 {
		t.Fatal("large object not fully reclaimed")
	}
}

func TestOutOfMemory(t *testing.T) {
	_, h := newHeap(t, 8*mb)
	var count int
	for {
		_, err := h.Allocate(200*kb, runtime.AllocOptions{})
		if err == runtime.ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		count++
		if count > 200 {
			t.Fatal("no OOM on an 8MB instance")
		}
	}
	if count == 0 {
		t.Fatal("OOM before any allocation")
	}
}

// TestOutOfMemoryKeepsEveryObject runs JavaScript bodies on heaps
// below 20 MiB, where a scavenge or a full GC's survivor copy runs out
// of room. Every failure must be ErrOutOfMemory, and the heap must
// still list every object the workload holds: its live bytes equal
// the state's, and the spaces stay inside the reservation.
func TestOutOfMemoryKeepsEveryObject(t *testing.T) {
	var failures int
	for budget := int64(5 * mb); budget < 20*mb; budget += mb {
		for _, fn := range []string{"fft", "matrix", "data-analysis"} {
			spec, err := workload.Lookup(fn)
			if err != nil {
				t.Fatal(err)
			}
			_, h := newHeap(t, budget)
			st := workload.NewState(spec, 0, h.Pool)
			rng := sim.NewRNG(1)
			for i := 0; i < 10; i++ {
				_, err := st.RunBody(h, rng)
				if err == nil {
					continue
				}
				if !errors.Is(err, runtime.ErrOutOfMemory) {
					t.Fatalf("%s at %d MiB: %v", fn, budget/mb, err)
				}
				failures++
				var want int64
				st.Objects(func(r mm.Ref) { want += h.Pool.At(r).LiveBytes() })
				if got := h.LiveBytes(); got != want {
					t.Fatalf("%s at %d MiB: heap lists %d live bytes after OOM, the workload holds %d", fn, budget/mb, got, want)
				}
				_, reserved := h.HeapRange()
				for _, sr := range h.AppendSpaceLayout(nil) {
					if sr.Off < 0 || sr.Off+sr.Len > reserved {
						t.Fatalf("%s at %d MiB: %s chunk at %d outside the %d-byte reservation", fn, budget/mb, sr.Name, sr.Off, reserved)
					}
				}
				break
			}
			st.Release()
			h.Release()
		}
	}
	if failures == 0 {
		t.Fatal("no body ran out of memory")
	}
}

func TestGCCostAccrues(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	for i := 0; i < 500; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	if c := h.DrainGCCost(); c <= 0 {
		t.Fatal("no GC cost")
	}
	if c := h.DrainGCCost(); c != 0 {
		t.Fatal("drain not idempotent")
	}
}

func TestReclaimDoesNotChargeMutator(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	for i := 0; i < 100; i++ {
		o := mustAlloc(t, h, 64*kb)
		h.Pool.At(o).Dead = true
	}
	h.DrainGCCost()
	rep := h.Reclaim(false)
	if rep.CPUCost <= 0 {
		t.Fatal("no reported cost")
	}
	if c := h.DrainGCCost(); c != 0 {
		t.Fatalf("reclaim left %v billed to the mutator", c)
	}
}

// gap and gaps rebuild a chunk's free intervals for assertions; the
// production path (chunk.place, appendFreeRuns) walks them in place
// without materializing a slice.
type gap struct{ off, len int64 }

func (c *chunk) gaps() []gap {
	var out []gap
	cursor := int64(ChunkHeaderSize)
	for _, r := range c.objects {
		o := c.arena.pool.At(r)
		if o.Offset > cursor {
			out = append(out, gap{cursor, o.Offset - cursor})
		}
		cursor = o.Offset + o.Bytes()
	}
	if cursor < ChunkSize {
		out = append(out, gap{cursor, ChunkSize - cursor})
	}
	return out
}

// TestPlaceIsFirstFit drives one old chunk through random runs,
// kills and sweeps and checks every placement against first fit
// computed cluster by cluster from the chunk's gaps: the same clusters
// placed at the same offsets, whether the walk ran or the chunk's
// noFit skipped it.
func TestPlaceIsFirstFit(t *testing.T) {
	m := osmem.NewMachine()
	r := m.NewAddressSpace("p").MmapAnon("arena", 4*ChunkSize)
	pool := new(mm.ObjectPool)
	c := newArena(pool, r).alloc("old", 16*kb)
	rng := sim.NewRNG(5)
	sizes := []int64{3 * kb, 8 * kb, 16*kb + 100, 40 * kb}
	for op := 0; op < 3000; op++ {
		switch rng.Intn(10) {
		case 0:
			c.sweep(false)
		case 1, 2:
			if len(c.objects) > 0 {
				o := pool.At(c.objects[rng.Intn(len(c.objects))])
				o.Kill(1 + int32(rng.Intn(int(o.Count))))
			}
		default:
			size := sizes[rng.Intn(len(sizes))]
			n := 1 + int32(rng.Intn(12))
			var want []int64
			gaps := c.gaps()
			for k := int32(0); k < n; k++ {
				for g := range gaps {
					if gaps[g].len >= size {
						want = append(want, gaps[g].off)
						gaps[g].off += size
						gaps[g].len -= size
						break
					}
				}
			}
			run := pool.NewRun(size, n)
			rest := c.place(run)
			var got []int64
			for p := run; p != rest; p = pool.At(p).Next {
				for i := int64(0); i < int64(pool.At(p).Count); i++ {
					got = append(got, pool.At(p).Offset+i*size)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: %d clusters of %d bytes placed at %v, first fit %v", op, n, size, got, want)
			}
			if rest != mm.NoRef {
				pool.At(rest).Kill(pool.At(rest).Count) // never placed
			}
		}
	}
}

func TestChunkGapAccounting(t *testing.T) {
	m := osmem.NewMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("arena", 4*ChunkSize)
	pool := new(mm.ObjectPool)
	a := newArena(pool, r)
	c := a.alloc("old", 10*kb)

	o1 := pool.New(10*kb, false)
	o2 := pool.New(20*kb, false)
	if c.place(o1) != mm.NoRef || c.place(o2) != mm.NoRef {
		t.Fatal("place failed")
	}
	gaps := c.gaps()
	if len(gaps) != 1 || gaps[0].len != ChunkSize-ChunkHeaderSize-30*kb {
		t.Fatalf("gaps: %+v", gaps)
	}
	// Kill the first object: the sweep leaves a hole.
	pool.At(o1).Dead = true
	col, weak := c.sweep(false)
	if col != 10*kb || weak != 0 {
		t.Fatalf("sweep: %d/%d", col, weak)
	}
	gaps = c.gaps()
	if len(gaps) != 2 {
		t.Fatalf("expected hole + tail, got %+v", gaps)
	}
	// A new object that fits the hole reuses it (first fit).
	o3 := pool.New(8*kb, false)
	if c.place(o3) != mm.NoRef {
		t.Fatal("place in hole failed")
	}
	if pool.At(o3).Offset != ChunkHeaderSize {
		t.Fatalf("first-fit violated: offset %d", pool.At(o3).Offset)
	}
	if c.String() == "" {
		t.Fatal("empty chunk String")
	}
}

func TestArenaRecyclesSlots(t *testing.T) {
	m := osmem.NewMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("arena", 2*ChunkSize)
	a := newArena(new(mm.ObjectPool), r)
	c1 := a.alloc("x", kb)
	c2 := a.alloc("x", 64*kb)
	if c1 == nil || c2 == nil {
		t.Fatal("alloc failed")
	}
	if a.alloc("x", 0) != nil {
		t.Fatal("arena over-allocated")
	}
	// A new struct's list fits twice as many objects of the first
	// one's size as the chunk holds, up to chunkObjects.
	if cap(c1.objects) != chunkObjects || cap(c2.objects) != 2*ChunkUsable/(64*kb)+1 {
		t.Fatalf("object list capacities %d and %d", cap(c1.objects), cap(c2.objects))
	}
	c1.objects = append(c1.objects, make([]mm.Ref, chunkObjects+1)...)
	c1.objects = c1.objects[:0]
	a.release(c1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		a.release(c1)
	}()
	// The released chunk's slot and struct both come back, the struct
	// reset but for its object list.
	list := cap(c1.objects)
	c3 := a.alloc("y", 64*kb)
	if c3 == nil || c3.slot != c1.slot {
		t.Fatal("slot not recycled")
	}
	if c3 != c1 || c3.dead || c3.owner != "y" || len(c3.objects) != 0 || cap(c3.objects) != list {
		t.Fatalf("chunk struct not recycled: %+v", c3)
	}
}

func TestHeapStringer(t *testing.T) {
	_, h := newHeap(t, 256*mb)
	if h.String() == "" {
		t.Fatal("empty String")
	}
	if h.spaces[0].String() == "" {
		t.Fatal("empty semispace String")
	}
}

// TestTinyBudgetFails: a budget whose semispace ceiling falls below
// the initial semispace size is an error from New and runtime.New; a
// budget just above it builds.
func TestTinyBudgetFails(t *testing.T) {
	m := osmem.NewMachine()
	tiny := runtime.Config{AddressSpace: m.NewAddressSpace("node"), MemoryBudget: 4 * mb}
	if h, err := New(tiny); err == nil || h != nil {
		t.Fatalf("New(4 MiB budget) = %v, %v; want an error", h, err)
	}
	if rt, err := runtime.New(RuntimeName, tiny); err == nil || rt != nil {
		t.Fatalf("runtime.New(4 MiB budget) = %v, %v; want an error", rt, err)
	}
	if _, h := newHeap(t, 5*mb); h.semiMax != semiSpaceInitial {
		t.Fatalf("5 MiB budget: semispace max %d, want %d", h.semiMax, semiSpaceInitial)
	}
}

// Property: live-byte accounting matches the caller's view under any
// allocation/death interleaving, and committed memory never exceeds
// the configured ceilings.
func TestHeapInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		m := osmem.NewMachine()
		h, err := New(runtime.Config{AddressSpace: m.NewAddressSpace("node"), MemoryBudget: 128 * mb})
		if err != nil {
			return false
		}
		var live []mm.Ref
		var want int64
		for _, op := range ops {
			if op%5 == 4 && len(live) > 0 {
				h.Pool.At(live[0]).Dead = true
				want -= h.Pool.At(live[0]).Size
				live = live[1:]
				continue
			}
			size := int64(op%40+1) * 8 * kb
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
		if h.old.committedBytes() > h.old.limit {
			return false
		}
		return h.YoungGenerationBytes() <= 2*h.semiMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleSafety checks the object pool's ownership rule against
// every collector that frees objects: scavenge, full GC and the
// old-space and large-object sweeps.
func TestRecycleSafety(t *testing.T) {
	runtimetest.CheckRecycling(t, 1*mb, 4*mb, func() runtimetest.Heap {
		_, h := newHeap(t, 32*mb)
		return runtimetest.Heap{Model: h, Language: runtime.JavaScript, Listed: func(f func(mm.Ref)) {
			h.EachPlaced(func(r mm.Ref, _ int64) { f(r) })
		}}
	})
}

// TestHeadroomHoldsForAnyMix: objects and runs of any sizes up to
// maxSize, as many bytes as the headroom promised, land without a
// collection, and each leaves a promise no smaller than the old one
// less its bytes.
func TestHeadroomHoldsForAnyMix(t *testing.T) {
	rng := sim.NewRNG(3)
	for trial := 0; trial < 60; trial++ {
		_, h := newHeap(t, 64*mb)
		for n := rng.Intn(60); n > 0; n-- {
			mustAlloc(t, h, 1+rng.Int63n(100*kb))
		}
		maxSize := 1 + rng.Int63n(LargeObjectThreshold)
		stats := h.Stats()
		room := h.Headroom(maxSize)
		for {
			size := 1 + rng.Int63n(maxSize)
			if size > room {
				break
			}
			if n := room / size; rng.Intn(2) == 0 {
				n = 1 + rng.Int63n(n)
				h.AllocateRun(size, int32(n))
				size *= n
			} else {
				mustAlloc(t, h, size)
			}
			room -= size
			if got := h.Headroom(maxSize); got < room {
				t.Fatalf("trial %d: headroom %d after placing %d bytes, promised at least %d", trial, got, size, room)
			}
		}
		if h.Stats() != stats {
			t.Fatalf("trial %d: a collection ran inside the headroom: %+v, was %+v", trial, h.Stats(), stats)
		}
		h.Release()
	}
	_, h := newHeap(t, 64*mb)
	if h.Headroom(LargeObjectThreshold+1) != 0 {
		t.Fatal("headroom promised for large objects")
	}
}

// TestHeadroomCountsReachableChunks pins the headroom's sum: the
// current chunk's share, plus one full chunk's share for each fresh
// chunk the capacity allows and the arena can still supply, and none
// for a chunk a force added past the capacity, which the bump leaves
// alone.
func TestHeadroomCountsReachableChunks(t *testing.T) {
	const used, maxSize = 100 * kb, 40 * kb
	share := func(free int64) int64 { return free - maxSize + 1 }
	_, h := newHeap(t, 64*mb)
	defer h.Release()
	mustAlloc(t, h, used)
	// The initial semispace is two chunks: the current one and a
	// fresh one.
	if got, want := h.Headroom(maxSize), share(ChunkUsable-used)+share(ChunkUsable); got != want {
		t.Fatalf("headroom %d, want %d", got, want)
	}
	// An arena that can supply no chunk leaves the current one's share.
	var held []*chunk
	for c := h.arena.alloc("test", 0); c != nil; c = h.arena.alloc("test", 0) {
		held = append(held, c)
	}
	if got, want := h.Headroom(maxSize), share(ChunkUsable-used); got != want {
		t.Fatalf("headroom %d with the arena exhausted, want %d", got, want)
	}
	if r := h.AllocateRun(maxSize, int32(share(ChunkUsable-used)/maxSize)); h.Pool.At(r).Next != mm.NoRef {
		t.Fatal("a run inside the current chunk's share split")
	}
	for _, c := range held {
		h.arena.release(c)
	}
	// Force the from space past its capacity, then empty it: the two
	// chunks within the capacity take bumps, the forced third none.
	from := h.fromSpace()
	for from.tryAllocate(h.Pool.New(maxSize, false)) == mm.NoRef {
	}
	from.force(h.Pool.New(maxSize, false))
	if len(from.chunks) != 3 || h.Headroom(maxSize) != 0 {
		t.Fatalf("%d chunks and headroom %d after a force, want 3 and 0", len(from.chunks), h.Headroom(maxSize))
	}
	for _, r := range from.takeAll(nil) {
		h.Pool.Free(r)
	}
	if got, want := h.Headroom(maxSize), 2*share(ChunkUsable); got != want {
		t.Fatalf("headroom %d in an emptied forced space, want %d", got, want)
	}
	n := 0
	for from.tryAllocate(h.Pool.New(maxSize, false)) == mm.NoRef {
		n++
	}
	if want := 2 * int(ChunkUsable/maxSize); n != want || from.chunkIdx != 2 {
		t.Fatalf("the bump placed %d objects and stopped at chunk %d, want %d and 2", n, from.chunkIdx, want)
	}
}

// TestAllocateRunSplitsAtChunks: a run bumps the from space as its
// clusters would one after another, one piece per chunk, chained
// oldest first.
func TestAllocateRunSplitsAtChunks(t *testing.T) {
	_, h := newHeap(t, 64*mb)
	mustAlloc(t, h, 100*kb) // leaves room for two of the run's clusters
	const size, n = 64*kb + 1, 4
	if room := h.Headroom(size); room < n*size {
		t.Fatalf("headroom %d for a run of %d bytes", room, n*size)
	}
	r := h.AllocateRun(size, n)
	var counts []int32
	chunks := map[mm.Ref]int64{}
	h.EachPlaced(func(r mm.Ref, chunk int64) { chunks[r] = chunk })
	prev := int64(-1)
	for p := r; p != mm.NoRef; p = h.Pool.At(p).Next {
		counts = append(counts, h.Pool.At(p).Count)
		if chunks[p] == prev {
			t.Fatalf("two pieces in the chunk at %d", prev)
		}
		prev = chunks[p]
	}
	if fmt.Sprint(counts) != "[2 2]" {
		t.Fatalf("pieces of %v clusters, want [2 2]", counts)
	}
	if got, want := h.LiveBytes(), int64(100*kb+n*size); got != want {
		t.Fatalf("live %d, want %d", got, want)
	}
}

// TestForceSplitsOffDeadPrefix: a live run that the out-of-memory path
// forces back into the from space leaves its dead prefix as a dead run
// of its own, so the piece its holder names is never dead in full,
// and the next scavenge collects exactly the prefix.
func TestForceSplitsOffDeadPrefix(t *testing.T) {
	_, h := newHeap(t, 64*mb)
	r := h.Pool.NewRun(64*kb, 8)
	h.Pool.At(r).Kill(4)
	h.fromSpace().force(r)
	var counts []int32
	for p := r; p != mm.NoRef; p = h.Pool.At(p).Next {
		if o := h.Pool.At(p); o.Dead || o.Killed != 0 {
			t.Fatalf("forced piece %v", o)
		}
		counts = append(counts, h.Pool.At(p).Count)
	}
	// Three clusters fill a chunk: the prefix takes a chunk and one
	// more cluster, the live rest two clusters there and two beyond.
	if fmt.Sprint(counts) != "[2 2]" {
		t.Fatalf("live pieces of %v clusters, want [2 2]", counts)
	}
	if got := h.LiveBytes(); got != 4*64*kb {
		t.Fatalf("live %d, want %d", got, 4*64*kb)
	}
	before := h.Stats().CollectedBytes
	if err := h.scavenge(); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().CollectedBytes - before; got != 4*64*kb {
		t.Fatalf("scavenge collected %d, want the %d-byte dead prefix", got, 4*64*kb)
	}
}
