package hotspot

import (
	"errors"
	"testing"
	"testing/quick"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/runtime/runtimetest"
)

const mb = 1 << 20
const kb = 1 << 10

func newHeap(t *testing.T, budget int64) (*osmem.Machine, *osmem.AddressSpace, *Heap) {
	t.Helper()
	m := osmem.NewMachine()
	as := m.NewAddressSpace("jvm")
	h, err := New(runtime.Config{AddressSpace: as, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return m, as, h
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
	as := m.NewAddressSpace("jvm")
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

func TestInitialLayout(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	young, old := h.Committed()
	if young+old > 20*mb {
		t.Fatalf("initial committed too large: young=%d old=%d", young, old)
	}
	if h.HeapCommitted() != young+old {
		t.Fatal("HeapCommitted mismatch")
	}
	va, length := h.HeapRange()
	if length != pageAlign(256*mb*85/100) || va == 0 {
		t.Fatalf("heap range: va=%d len=%d", va, length)
	}
	if h.ResidentBytes() != 0 {
		t.Fatalf("fresh heap resident: %d", h.ResidentBytes())
	}
}

func TestAllocateAndLiveBytes(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	a := mustAlloc(t, h, 100*kb)
	b := mustAlloc(t, h, 200*kb)
	if h.LiveBytes() != 300*kb {
		t.Fatalf("live: %d", h.LiveBytes())
	}
	h.Pool.At(a).Dead = true
	if h.LiveBytes() != 200*kb {
		t.Fatalf("live after death: %d", h.LiveBytes())
	}
	_ = b
}

func TestYoungGCCollectsDead(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	// Fill eden repeatedly with short-lived objects; the heap must not
	// grow beyond the young generation's needs.
	for i := 0; i < 200; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().YoungGCs == 0 {
		t.Fatal("no young GC despite eden churn")
	}
	if h.LiveBytes() != 0 {
		t.Fatalf("dead objects survived: %d", h.LiveBytes())
	}
	if h.Stats().PromotedBytes != 0 {
		t.Fatalf("dead objects promoted: %d", h.Stats().PromotedBytes)
	}
}

func TestSurvivorsPromoteAfterTenure(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	keep := mustAlloc(t, h, 64*kb)
	// Churn enough to force several young GCs.
	for i := 0; i < 300; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().PromotedBytes < h.Pool.At(keep).Size {
		t.Fatalf("long-lived object not promoted: %d", h.Stats().PromotedBytes)
	}
	if h.LiveBytes() != h.Pool.At(keep).Size {
		t.Fatalf("live: %d", h.LiveBytes())
	}
}

func TestHumongousAllocationGoesToOld(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	before := h.Stats().YoungGCs
	mustAlloc(t, h, 20*mb) // far beyond half of initial eden
	if h.Stats().YoungGCs != before {
		t.Fatal("humongous allocation triggered young GC")
	}
	_, old := h.Committed()
	if old < 20*mb {
		t.Fatalf("old generation did not expand: %d", old)
	}
}

func TestEagerGCShrinksCommittedButKeepsPagesResident(t *testing.T) {
	// The §3.2.1 result: after a burst of allocation, a forced full GC
	// shrinks the committed heap, but free pages *inside* the
	// committed range stay resident.
	_, _, h := newHeap(t, 256*mb)
	// First-invocation init spike: allocate 40MB of temporaries and a
	// 1MB long-lived survivor.
	static := mustAlloc(t, h, 1*mb)
	for i := 0; i < 160; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	grown := h.HeapCommitted()
	h.CollectFull(false)
	shrunk := h.HeapCommitted()
	if shrunk >= grown {
		t.Fatalf("full GC did not shrink: %d -> %d", grown, shrunk)
	}
	resident := h.ResidentBytes()
	if resident < 2*h.LiveBytes() {
		t.Fatalf("expected resident free pages inside committed heap; resident=%d live=%d",
			resident, h.LiveBytes())
	}
	_ = static
}

func TestReclaimReleasesFreePages(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	static := mustAlloc(t, h, 1*mb)
	for i := 0; i < 160; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	rep := h.Reclaim(false)
	if rep.LiveBytes != h.Pool.At(static).Size {
		t.Fatalf("report live: %d want %d", rep.LiveBytes, h.Pool.At(static).Size)
	}
	if rep.ReleasedBytes <= 0 {
		t.Fatal("nothing released")
	}
	if rep.CPUCost <= 0 {
		t.Fatal("no CPU cost reported")
	}
	resident := h.ResidentBytes()
	// Resident must be within a few pages of live bytes (page
	// alignment overhead only).
	if slack := resident - h.Pool.At(static).Size; slack < 0 || slack > 16*osmem.PageSize {
		t.Fatalf("resident=%d live=%d slack=%d", resident, h.Pool.At(static).Size, slack)
	}
}

func TestReclaimThenReuse(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	mustAlloc(t, h, 512*kb)
	h.Reclaim(false)
	// The heap must remain fully functional after reclamation.
	o := mustAlloc(t, h, 300*kb)
	if o == mm.NoRef || h.LiveBytes() != 512*kb+300*kb {
		t.Fatalf("post-reclaim allocation broken: live=%d", h.LiveBytes())
	}
}

func TestReclaimDoesNotChargeMutator(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	for i := 0; i < 50; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	h.DrainGCCost()
	h.Reclaim(false)
	if c := h.DrainGCCost(); c != 0 {
		t.Fatalf("reclaim left %v billed to the mutator", c)
	}
}

func TestCollectFullAggressiveClearsWeak(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	w, err := h.Allocate(2*mb, runtime.AllocOptions{Weak: true})
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
	_, _, h := newHeap(t, 16*mb) // tiny instance
	var live []mm.Ref
	for {
		o, err := h.Allocate(1*mb, runtime.AllocOptions{})
		if err != nil {
			if err != runtime.ErrOutOfMemory {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		live = append(live, o)
		if len(live) > 100 {
			t.Fatal("no OOM on a 16MB instance after 100MB")
		}
	}
	// Live data must still be intact after the failed allocation.
	if h.LiveBytes() != int64(len(live))*mb {
		t.Fatalf("live after OOM: %d", h.LiveBytes())
	}
}

func TestGCCostAccrues(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	for i := 0; i < 100; i++ {
		o := mustAlloc(t, h, 256*kb)
		h.Pool.At(o).Dead = true
	}
	if h.Stats().YoungGCs == 0 {
		t.Fatal("no GCs")
	}
	if c := h.DrainGCCost(); c <= 0 {
		t.Fatal("GC cost not accrued")
	}
	if c := h.DrainGCCost(); c != 0 {
		t.Fatalf("drain not idempotent: %v", c)
	}
}

func TestDeoptPenaltyZero(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	h.CollectFull(true)
	if h.ConsumeDeoptPenalty() != 0 {
		t.Fatal("hotspot should have no deopt penalty")
	}
}

func TestRepeatedInvocationCycleIsStable(t *testing.T) {
	// Simulate the paper's 100-iteration experiment shape: each
	// invocation allocates temporaries that die at exit; with Reclaim
	// after each exit, the footprint stays near live bytes and does
	// not creep.
	_, _, h := newHeap(t, 256*mb)
	static := mustAlloc(t, h, 2*mb)
	var lastResident int64
	for iter := 0; iter < 20; iter++ {
		var temps []mm.Ref
		for i := 0; i < 40; i++ {
			temps = append(temps, mustAlloc(t, h, 256*kb))
		}
		for _, o := range temps {
			h.Pool.At(o).Dead = true
		}
		h.Reclaim(false)
		r := h.ResidentBytes()
		if iter > 2 && r != lastResident {
			t.Fatalf("footprint not stable at iter %d: %d vs %d", iter, r, lastResident)
		}
		lastResident = r
	}
	if lastResident < h.Pool.At(static).Size || lastResident > h.Pool.At(static).Size+16*osmem.PageSize {
		t.Fatalf("stable footprint %d far from live %d", lastResident, h.Pool.At(static).Size)
	}
}

func TestStringer(t *testing.T) {
	_, _, h := newHeap(t, 256*mb)
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

// TestYoungGCFirstFitSpillIsOutOfMemory: survivors fill the to space
// first-fit in list order, so more can spill to the old generation
// than the survivor bytes exceed the to space by. Two survivors of
// 0.6× its capacity overflow it by 0.2× on paper, yet the second
// spills whole. With room for only 0.4× left in the fully expanded
// old generation, the collection must report ErrOutOfMemory and leave
// the heap untouched rather than fail a promotion mid-copy.
func TestYoungGCFirstFitSpillIsOutOfMemory(t *testing.T) {
	_, _, h := newHeap(t, 32*mb)
	to := h.surv[1-h.from].Capacity()
	mustAlloc(t, h, to*6/10)
	mustAlloc(t, h, to*6/10)
	h.expandOld(h.oldReserve)
	if !h.old.TryAllocate(h.Pool.New(h.old.Free()-to*4/10, false)) {
		t.Fatal("old generation fill did not fit")
	}
	live, stats := h.LiveBytes(), h.Stats()
	if err := h.youngGC(); !errors.Is(err, runtime.ErrOutOfMemory) {
		t.Fatalf("youngGC: %v, want ErrOutOfMemory", err)
	}
	if h.LiveBytes() != live || h.Stats() != stats || len(h.eden.Objects()) != 2 {
		t.Fatalf("failed young GC changed the heap: live %d → %d, stats %+v → %+v",
			live, h.LiveBytes(), stats, h.Stats())
	}
}

// TestYoungGCRunSpillIsOutOfMemory: a run fills the to space cluster
// by cluster, so the bytes its last fitting cluster leaves free still
// take a later, smaller survivor. A run of three clusters of 0.4× the
// to space's capacity puts two there and spills the third (0.4×); a
// 0.15× survivor behind it fits the 0.2× left. With room for only
// 0.37× left in the fully expanded old generation, the collection
// must report ErrOutOfMemory, as it would for the three clusters
// allocated one by one, and leave the heap untouched.
func TestYoungGCRunSpillIsOutOfMemory(t *testing.T) {
	_, _, h := newHeap(t, 32*mb)
	to := h.surv[1-h.from].Capacity()
	h.AllocateRun(to*4/10, 3)
	mustAlloc(t, h, to*15/100)
	h.expandOld(h.oldReserve)
	if !h.old.TryAllocate(h.Pool.New(h.old.Free()-to*37/100, false)) {
		t.Fatal("old generation fill did not fit")
	}
	live, stats := h.LiveBytes(), h.Stats()
	if err := h.youngGC(); !errors.Is(err, runtime.ErrOutOfMemory) {
		t.Fatalf("youngGC: %v, want ErrOutOfMemory", err)
	}
	if h.LiveBytes() != live || h.Stats() != stats || len(h.eden.Objects()) != 2 {
		t.Fatalf("failed young GC changed the heap: live %d → %d, stats %+v → %+v",
			live, h.LiveBytes(), stats, h.Stats())
	}
}

// TestYoungGCSplitsRuns: a young collection drops a run's dead prefix,
// copies the oldest live clusters that fit into the to space and
// promotes the rest as a piece chained after them, and the run's Ref
// keeps naming its oldest live clusters.
func TestYoungGCSplitsRuns(t *testing.T) {
	_, _, h := newHeap(t, 32*mb)
	to := h.surv[1-h.from].Capacity()
	size := to / 3
	r := h.AllocateRun(size, 5)
	h.Pool.At(r).Kill(1)
	if err := h.youngGC(); err != nil {
		t.Fatal(err)
	}
	o := h.Pool.At(r)
	if o.Count != 3 || o.Killed != 0 || o.Age != 1 || o.Offset != h.surv[h.from].Base() || o.Next == mm.NoRef {
		t.Fatalf("survivor piece %v next %d, want 3 clusters at the to space's base, chained", o, o.Next)
	}
	p := h.Pool.At(o.Next)
	if p.Count != 1 || p.Age != 0 || p.Offset != h.old.Base() || p.Next != mm.NoRef {
		t.Fatalf("promoted piece %v next %d, want 1 cluster at the old generation's base", p, p.Next)
	}
	if got := h.LiveBytes(); got != 4*size {
		t.Fatalf("LiveBytes %d, want the 4 live clusters' %d", got, 4*size)
	}
	if st := h.Stats(); st.CollectedBytes != size || st.PromotedBytes != size {
		t.Fatalf("stats %+v, want one cluster collected and one promoted", st)
	}
}

// Property: under any interleaving of allocations and deaths, the
// heap's resident bytes never exceed the committed size plus former
// committed peaks, and live accounting matches what the caller kept.
func TestHeapInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		m := osmem.NewMachine()
		as := m.NewAddressSpace("jvm")
		h, err := New(runtime.Config{AddressSpace: as, MemoryBudget: 128 * mb})
		if err != nil {
			return false
		}
		var live []mm.Ref
		var want int64
		for _, op := range ops {
			size := int64(op%32+1) * 32 * kb
			if op%5 == 4 && len(live) > 0 {
				// Kill the oldest tracked object.
				h.Pool.At(live[0]).Dead = true
				want -= h.Pool.At(live[0]).Size
				live = live[1:]
				continue
			}
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
		young, old := h.Committed()
		return young+old <= pageAlign(128*mb*85/100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleSafety checks the object pool's ownership rule against
// every collector that frees objects: young GC, old compaction and
// full GC.
func TestRecycleSafety(t *testing.T) {
	runtimetest.CheckRecycling(t, 2*mb, 4*mb, func() runtimetest.Heap {
		_, _, h := newHeap(t, 32*mb)
		return runtimetest.Heap{Model: h, Language: runtime.Java, Listed: func(f func(mm.Ref)) {
			for _, sp := range []*mm.BumpSpace{h.eden, h.surv[0], h.surv[1], h.old} {
				for _, o := range sp.Objects() {
					f(o)
				}
			}
		}}
	})
}
