// Package hotspot simulates the OpenJDK HotSpot serial-GC heap as the
// paper describes it (§3.2.1): a contiguous generational layout with
// eden/from/to young spaces and an old generation, copying young
// collections, mark-sweep-compact full collections, and the
// free-ratio-driven resize policy that *resizes* the heap without ever
// *releasing* interior free pages — which is why eager GC alone cannot
// cure frozen garbage on Java.
//
// Desiccant's Algorithm 1 is implemented by Reclaim: full collection,
// resize, then an explicit release of every free page in every space
// back to the OS.
package hotspot

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
)

// RuntimeName is the name this package registers with the runtime
// registry.
const RuntimeName = "hotspot-serial"

func init() { runtime.Register(RuntimeName, New) }

// The HotSpot flags that matter to the paper, fixed at the stock
// serial-GC values. The heap gets 85% of the instance budget (Lambda
// sizes -Xmx from the function's memory setting) and commits lazily
// from a small initial size. The ratios are typed float64 constants:
// an untyped 1-0.70 folds exactly and rounds to a different float64
// than the run-time subtraction 1-maxFreeRatio, a typed one does not.
const (
	// heapPercent of the memory budget is -Xmx, the reserved heap.
	heapPercent = 85
	// maxInitialHeap caps -Xms, the initially committed size.
	maxInitialHeap = 16 << 20
	// newRatio is old:young sizing (-XX:NewRatio): young gets
	// 1/(newRatio+1) of the heap.
	newRatio = 2
	// survivorRatio is eden:survivor sizing (-XX:SurvivorRatio): each
	// survivor space gets 1/(survivorRatio+2) of the young generation.
	survivorRatio = 8
	// minFreeRatio and maxFreeRatio are -XX:Min/MaxHeapFreeRatio:
	// after a full GC, the old generation is resized so its free ratio
	// lies within [minFreeRatio, maxFreeRatio].
	minFreeRatio float64 = 0.40
	maxFreeRatio float64 = 0.70
	// tenureThreshold is the young-GC survival count after which an
	// object is promoted to the old generation.
	tenureThreshold = 2
)

func pageAlign(n int64) int64 {
	return osmem.PagesFor(n) * osmem.PageSize
}

// minYoungBytes is the floor for the committed young generation (the
// serial GC will not shrink the young generation to nothing).
const minYoungBytes = 2 << 20

// minOldBytes is the floor for the committed old generation.
const minOldBytes = 1 << 20

// Heap is a simulated HotSpot serial-GC heap.
type Heap struct {
	runtime.HeapCore

	// Reserved layout: young generation at [0, youngReserve), old
	// generation at [youngReserve, -Xmx).
	youngReserve int64
	oldReserve   int64

	// Committed sizes within each reservation.
	youngCommitted int64
	oldCommitted   int64

	eden *mm.BumpSpace
	surv [2]*mm.BumpSpace // survivor spaces; surv[fromIdx] is "from"
	from int              // index of the from space
	old  *mm.BumpSpace

	// highSurvivalGCs counts consecutive young collections whose live
	// set exceeded half of eden — the adaptive-sizing signal that the
	// young generation is undersized for the workload.
	highSurvivalGCs int
	// youngFloor is the young size the adaptive sizing has earned; the
	// resize phase will not shrink below it, but decays it on every
	// full GC so the generation can drift back down when the workload
	// quietens.
	youngFloor int64

	// liveScratch is the reusable survivor list of old-generation
	// compactions (see compactOld).
	liveScratch []mm.Ref
	// youngScratch is the reusable list of young objects a full GC
	// gathers and a young re-layout carries (see fullGC, layoutYoung).
	youngScratch []mm.Ref
}

var (
	_ runtime.Runtime     = (*Heap)(nil)
	_ runtime.SpaceLayout = (*Heap)(nil)
)

// New derives -Xmx and -Xms from cfg's memory budget, reserves the
// heap inside cfg's address space and commits the initial size. It
// never fails; the error result is the shape runtime.Register takes.
func New(cfg runtime.Config) (*Heap, error) {
	xmx := cfg.MemoryBudget * heapPercent / 100
	xms := min(xmx, maxInitialHeap)
	h := &Heap{HeapCore: runtime.NewHeapCore("hotspot", "java-heap", xmx, cfg)}
	h.youngReserve = pageAlign(xmx / (newRatio + 1))
	h.oldReserve = pageAlign(xmx) - h.youngReserve

	h.youngCommitted = min(max(pageAlign(xms/(newRatio+1)), pageAlign(minYoungBytes)), h.youngReserve)
	h.oldCommitted = min(max(pageAlign(xms)-h.youngCommitted, pageAlign(minOldBytes)), h.oldReserve)

	h.old = mm.NewBumpSpace("old", h.Pool, h.Region, h.youngReserve, h.oldCommitted)
	h.eden = mm.NewBumpSpace("eden", h.Pool, h.Region, 0, 0)
	h.surv[0] = mm.NewBumpSpace("from", h.Pool, h.Region, 0, 0)
	h.surv[1] = mm.NewBumpSpace("to", h.Pool, h.Region, 0, 0)
	h.liveScratch = h.Pool.List()
	h.youngScratch = h.Pool.List()
	h.youngFloor = h.youngCommitted
	h.layoutYoung()
	return h, nil
}

// layoutYoung (re)carves eden/from/to out of the committed young
// generation, in place: the spaces keep their object lists' capacity.
// Live survivor objects are carried across the re-carve. Eden must be
// empty.
//
// The survivors always fit the new from space. New lays out before any
// object exists, and resize runs only after fullGC has emptied both
// survivor spaces, so only the adaptive growth in youngGC carries any.
// That growth only raises youngCommitted, so the survivor spaces only
// grow, and the survivors, which fitted the old from space, fit the
// new one.
func (h *Heap) layoutYoung() {
	survBytes := pageAlign(h.youngCommitted / (survivorRatio + 2))
	edenBytes := h.youngCommitted - 2*survBytes
	if edenBytes < 0 {
		panic(fmt.Sprintf("hotspot: young generation too small: %d", h.youngCommitted))
	}
	survivors := append(h.youngScratch[:0], h.surv[h.from].Objects()...)
	h.surv[h.from].Reset()
	h.eden.Recarve(0, edenBytes)
	h.surv[0].Recarve(edenBytes, survBytes)
	h.surv[1].Recarve(edenBytes+survBytes, survBytes)
	h.from = 0
	h.youngScratch = survivors[:0]
	if len(survivors) > 0 && !h.surv[0].Relocate(survivors) {
		panic("hotspot: survivors outgrew a re-laid survivor space, which only grows while it holds any")
	}
}

// HeapCommitted implements runtime.Runtime.
func (h *Heap) HeapCommitted() int64 {
	h.AssertLive()
	return h.youngCommitted + h.oldCommitted
}

// LiveBytes implements runtime.Runtime.
func (h *Heap) LiveBytes() int64 {
	h.AssertLive()
	return h.eden.LiveBytes() + h.surv[0].LiveBytes() + h.surv[1].LiveBytes() + h.old.LiveBytes()
}

// Release implements runtime.Runtime.
func (h *Heap) Release() {
	h.AssertLive()
	for _, sp := range h.spaces() {
		sp.GiveBack()
	}
	h.Pool.PutList(h.liveScratch)
	h.Pool.PutList(h.youngScratch)
	h.ReleasePool()
}

// spaces lists the heap's four spaces.
func (h *Heap) spaces() [4]*mm.BumpSpace {
	return [4]*mm.BumpSpace{h.eden, h.surv[0], h.surv[1], h.old}
}

// Allocate implements runtime.Runtime.
func (h *Heap) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	if size <= 0 {
		panic("hotspot: non-positive allocation")
	}
	h.AssertLive()
	o := h.Pool.New(size, opts.Weak)

	// Objects larger than half of eden go straight to the old
	// generation, as HotSpot does for humongous allocations.
	if size > h.eden.Capacity()/2 {
		if h.oldAllocate(o) {
			return o, nil
		}
		if err := h.fullGC(false); err != nil {
			return h.Fail(o, err)
		}
		if h.oldAllocate(o) {
			return o, nil
		}
		return h.Fail(o, runtime.ErrOutOfMemory)
	}

	if h.eden.TryAllocate(o) {
		return o, nil
	}
	if err := h.youngGC(); err != nil {
		return h.Fail(o, err)
	}
	if h.eden.TryAllocate(o) {
		return o, nil
	}
	// Eden still too small (young generation undersized): grow the
	// heap via a full collection + resize, then retry.
	if err := h.fullGC(false); err != nil {
		return h.Fail(o, err)
	}
	if h.eden.TryAllocate(o) {
		return o, nil
	}
	if h.oldAllocate(o) {
		return o, nil
	}
	return h.Fail(o, runtime.ErrOutOfMemory)
}

// Headroom implements runtime.Runtime: objects small enough for eden
// bump into its free bytes until the next young collection.
func (h *Heap) Headroom(maxSize int64) int64 {
	h.AssertLive()
	if maxSize > h.eden.Capacity()/2 {
		return 0
	}
	return h.eden.Free()
}

// AllocateRun implements runtime.Runtime: the run bumps eden as one
// object, where its clusters would have landed one after another.
func (h *Heap) AllocateRun(size int64, n int32) mm.Ref {
	h.AssertLive()
	r := h.Pool.NewRun(size, n)
	if size > h.eden.Capacity()/2 || !h.eden.TryAllocate(r) {
		panic(fmt.Sprintf("hotspot: run of %d clusters of %d bytes outside the headroom (eden %d free of %d)",
			n, size, h.eden.Free(), h.eden.Capacity()))
	}
	return r
}

// oldAllocate tries to place o in the old generation, compacting dead
// tenured data and then expanding the committed size (never beyond
// the reservation) as needed. Compacting before expanding is what
// keeps the old generation's committed size — and therefore its
// touched-page peak — near the live peak instead of ratcheting up
// with every promotion burst.
func (h *Heap) oldAllocate(o mm.Ref) bool {
	if h.old.TryAllocate(o) {
		return true
	}
	size := h.Pool.At(o).Bytes()
	if h.Pool.DeadBytes(h.old.Objects()) >= size {
		traced, moved, collected := h.compactOld(false)
		h.GC.CollectedBytes += collected
		h.NotePause(true, mm.GCCycle(traced, moved, collected), collected)
		if h.old.TryAllocate(o) {
			// Keep the generation inside its free-ratio band even on
			// the compaction path, or a tightly-sized generation would
			// compact on every subsequent allocation burst.
			if h.old.Free() < int64(minFreeRatio*float64(h.oldCommitted)) {
				h.expandOld(1)
			}
			return true
		}
	}
	need := size - h.old.Free()
	if !h.expandOld(need) {
		return false
	}
	return h.old.TryAllocate(o)
}

// expandOld grows the old generation's committed size by at least
// need bytes, targeting the same minFreeRatio headroom the post-GC
// resize uses — so a heap that grew reactively and a heap that was
// resized after a collection converge on the same free-space band
// (and therefore the same compaction cadence). Returns false at the
// reservation limit.
func (h *Heap) expandOld(need int64) bool {
	if need <= 0 {
		need = 1
	}
	occupied := h.old.Used() + need
	target := int64(float64(occupied) / (1 - minFreeRatio))
	newCommitted := min(pageAlign(max(h.oldCommitted+need, target)), h.oldReserve)
	if newCommitted == h.oldCommitted {
		return false
	}
	h.oldCommitted = newCommitted
	h.old.SetCapacity(h.oldCommitted)
	return true
}

// youngGC performs a copying collection of the young generation. It
// returns ErrOutOfMemory — without mutating the heap — when live young
// data cannot fit in the survivor space plus the maximally-expanded
// old generation.
func (h *Heap) youngGC() error {
	from := h.surv[h.from]
	to := h.surv[1-h.from]

	// Classification pass (no mutation): decide each live cluster's
	// destination so the collection can be aborted cleanly on OOM.
	// Survivors fill the to space first-fit in list order, as the copy
	// below does, so spilled is exactly what the copy promotes for lack
	// of survivor room: a larger survivor can spill while smaller ones
	// behind it still fit, so it may exceed survivorBytes-capacity. A
	// run's clusters all have its size, so the first that does not fit
	// spills the rest of the run with it.
	var traced, tenured, survivorBytes, toTop, spilled int64
	for _, objs := range [2][]mm.Ref{h.eden.Objects(), from.Objects()} {
		for _, r := range objs {
			o := h.Pool.At(r)
			if o.Dead {
				continue
			}
			live := o.LiveBytes()
			traced += live
			if o.Age+1 > tenureThreshold {
				tenured += live
				continue
			}
			survivorBytes += live
			fit := min(live, (to.Capacity()-toTop)/o.Size*o.Size)
			toTop += fit
			spilled += live - fit
		}
	}
	// Every promotion must fit beside the old generation's live data in
	// the fully expanded, compacted old generation. Used bounds live
	// from above, so the live sum is only walked near the limit.
	if promote := tenured + spilled; promote > h.oldReserve-h.old.Used() && promote > h.oldReserve-h.old.LiveBytes() {
		return runtime.ErrOutOfMemory
	}
	overflow := max(survivorBytes-to.Capacity(), 0)
	needOld := tenured + overflow
	if needOld > h.old.Free() && !h.ensureOldFree(needOld) {
		return runtime.ErrOutOfMemory
	}

	h.GC.YoungGCs++
	var copied, promoted, collected int64
	to.Reset()
	// Survivors bump into the to space back to back, and promotions
	// into the old generation's free tail back to back, so both
	// batches defer their page touches and flush each as one
	// contiguous span. The two land on disjoint pages and page touches
	// commute (fault costs and counters are sums, and nothing is
	// released in between), so the deferral reorders nothing
	// observable. A run loses its dead prefix, then its oldest live
	// clusters fill the to space and the rest is promoted (promote),
	// which splits it into pieces where its clusters part ways. Eden
	// and from are iterated in place (nothing appends to them here)
	// and reset afterwards, which keeps their object-list capacity for
	// the next cycle instead of regrowing it from nil every
	// collection.
	tb := to.BeginCopy()
	ob := h.old.BeginCopy()
	for _, objs := range [2][]mm.Ref{h.eden.Objects(), from.Objects()} {
		for _, r := range objs {
			o := h.Pool.At(r)
			if o.Dead {
				collected += o.Bytes()
				h.Pool.Free(r)
				continue
			}
			collected += o.DropDead()
			o.Age++
			if o.Age <= tenureThreshold {
				if k := min(int64(o.Count), to.Free()/o.Size); k > 0 {
					size := o.Size
					rest := h.Pool.Split(r, int32(k))
					if !tb.TryAllocate(r) {
						panic("hotspot: survivor overflows the to space it was sized for")
					}
					copied += k * size
					r = rest
				}
			}
			if r != mm.NoRef {
				promoted += h.promote(r, &ob)
			}
		}
	}
	tb.Flush()
	ob.Flush()
	h.eden.Reset() // pages stay resident: frozen garbage in waiting
	from.Reset()
	h.from = 1 - h.from
	h.GC.PromotedBytes += promoted
	h.GC.CollectedBytes += collected
	h.NotePause(false, mm.GCCycle(traced, copied+promoted, 0), collected)

	// Adaptive young sizing: a sustained run of high-survival young
	// collections means eden is undersized for the live working set;
	// grow the young generation (capped at half its reservation). The
	// achieved size is sticky — resize() never shrinks below it — so
	// vanilla, eager and post-reclamation heaps all converge on the
	// same steady-state collection behaviour.
	if traced > h.eden.Capacity()/2 {
		h.highSurvivalGCs++
	} else {
		h.highSurvivalGCs = 0
	}
	if h.highSurvivalGCs >= 4 && h.youngCommitted < h.youngReserve/2 {
		h.youngCommitted = min(max(pageAlign(h.youngCommitted*3/2), pageAlign(minYoungBytes)), h.youngReserve/2)
		h.youngFloor = h.youngCommitted
		h.layoutYoung()
		h.highSurvivalGCs = 0
	}
	return nil
}

// promote moves run r, which has no dead prefix, into the old
// generation at age 0 through the batch ob, and returns its bytes.
// The clusters that fit the old generation's free tail go as one
// piece. A cluster that does not fit goes alone through oldAllocate,
// as every promoted cluster does once the tail is full: its compaction
// or expansion inspects the old generation's pages, so the batch is
// flushed before it, and every touch it deferred lands first, as it
// would have unbatched, and the batch restarts at the new bump
// pointer.
func (h *Heap) promote(r mm.Ref, ob *mm.CopyBatch) int64 {
	var bytes int64
	for r != mm.NoRef {
		o := h.Pool.At(r)
		o.Age = 0
		size := o.Size
		if k := min(int64(o.Count), h.old.Free()/size); k > 0 {
			rest := h.Pool.Split(r, int32(k))
			if !ob.TryAllocate(r) {
				panic("hotspot: promotion overflows the old tail it was sized for")
			}
			bytes += k * size
			r = rest
			continue
		}
		rest := h.Pool.Split(r, 1)
		ob.Flush()
		// oldAllocate compacts only when the dead tenured bytes alone
		// fit the cluster. A spilled survivor, which the room made
		// before a young collection does not cover, can need the dead
		// bytes and an expansion together; the feasibility check
		// counted on both.
		if !h.oldAllocate(r) && !(h.ensureOldFree(size) && h.old.TryAllocate(r)) {
			panic("hotspot: promotion failed after feasibility check")
		}
		*ob = h.old.BeginCopy()
		bytes += size
		r = rest
	}
	return bytes
}

// ensureOldFree makes at least need bytes available in the old
// generation by compacting it and expanding its committed size, and
// reports whether it succeeded.
func (h *Heap) ensureOldFree(need int64) bool {
	if h.old.Free() >= need {
		return true
	}
	if h.Pool.DeadBytes(h.old.Objects()) > 0 {
		traced, moved, collected := h.compactOld(false)
		h.GC.CollectedBytes += collected
		h.NotePause(true, mm.GCCycle(traced, moved, collected), collected)
	}
	if h.old.Free() >= need {
		return true
	}
	if !h.expandOld(need - h.old.Free()) {
		return false
	}
	return h.old.Free() >= need
}

// compactOld mark-sweep-compacts the old generation in place.
func (h *Heap) compactOld(aggressive bool) (traced, moved, collected int64) {
	// Filter into a reusable scratch list so neither the live list nor
	// the old space's own list (truncated and refilled by Relocate)
	// reallocates every compaction.
	live := h.liveScratch[:0]
	for _, r := range h.old.Objects() {
		o := h.Pool.At(r)
		if o.Collectible(aggressive) {
			o.Dead = true
			collected += o.Bytes()
			h.Pool.Free(r)
			continue
		}
		collected += o.DropDead()
		traced += o.Bytes()
		live = append(live, r)
	}
	if !h.old.Relocate(live) {
		panic("hotspot: old compaction overflow")
	}
	moved = traced
	h.liveScratch = live
	return traced, moved, collected
}

// fullGC is the serial mark-sweep-compact cycle (System.gc() path):
// every generation is collected, young survivors are compacted into
// the old generation, and the resize policy runs afterwards. It
// returns ErrOutOfMemory — without collecting — when the live set
// cannot fit in the maximally-expanded old generation.
func (h *Heap) fullGC(aggressive bool) error {
	// Feasibility: every live cluster ends up in the old generation.
	var liveTotal int64
	for _, sp := range h.spaces() {
		for _, r := range sp.Objects() {
			if o := h.Pool.At(r); !o.Collectible(aggressive) {
				liveTotal += o.LiveBytes()
			}
		}
	}
	if liveTotal > h.oldReserve {
		return runtime.ErrOutOfMemory
	}

	h.GC.FullGCs++
	var traced, moved, collected int64

	// Young survivors all move into the old generation, behind the
	// compacted old data, the way a young collection promotes them.
	young := append(h.youngScratch[:0], h.eden.Objects()...)
	young = append(young, h.surv[h.from].Objects()...)
	h.eden.Reset()
	h.surv[0].Reset()
	h.surv[1].Reset()

	traced, moved, collected = h.compactOld(aggressive)

	ob := h.old.BeginCopy()
	for _, r := range young {
		o := h.Pool.At(r)
		if o.Collectible(aggressive) {
			o.Dead = true
			collected += o.Bytes()
			h.Pool.Free(r)
			continue
		}
		collected += o.DropDead()
		n := h.promote(r, &ob)
		traced += n
		moved += n
	}
	ob.Flush()
	h.youngScratch = young[:0]
	h.GC.CollectedBytes += collected
	h.NotePause(true, mm.GCCycle(traced, moved, collected), collected)
	h.resize()
	return nil
}

// resize is the post-full-GC sizing phase (§3.2.1): the old
// generation's committed size is adjusted to keep its free ratio in
// [minFreeRatio, maxFreeRatio]; the young generation's committed size
// follows the old generation's. Shrinking uncommits pages at the top
// of each generation — crucially, free pages *below* the committed
// boundary (empty eden, survivor spaces, old-gen slack) are NOT
// released: that is exactly the frozen-garbage residue eager GC
// leaves behind.
func (h *Heap) resize() {
	committedBefore := h.HeapCommitted()
	defer func() { h.NoteResize(committedBefore, h.HeapCommitted()) }()
	used := h.old.Used()

	// Old generation: target a committed size whose free ratio is
	// inside the configured band.
	oldTarget := h.oldCommitted
	if free := h.oldCommitted - used; h.oldCommitted > 0 {
		ratio := float64(free) / float64(h.oldCommitted)
		if ratio < minFreeRatio {
			oldTarget = int64(float64(used) / (1 - minFreeRatio))
		} else if ratio > maxFreeRatio {
			oldTarget = int64(float64(used) / (1 - maxFreeRatio))
		}
	}
	oldTarget = min(max(pageAlign(max(oldTarget, used)), pageAlign(minOldBytes)), h.oldReserve)
	if oldTarget < used {
		oldTarget = pageAlign(used)
	}
	if oldTarget < h.oldCommitted {
		// Uncommit the tail: mmap/PROT_NONE clears the physical pages.
		h.Region.ReleaseBytes(h.youngReserve+oldTarget, h.oldCommitted-oldTarget)
	}
	h.oldCommitted = oldTarget
	h.old.SetCapacity(h.oldCommitted)

	// Young generation: sized from the old generation (the paper's
	// description), floored at the size the adaptive young sizing has
	// earned so one collection cannot trigger a young-GC storm on the
	// invocations that follow. The floor decays per full GC, so a
	// workload under frequent forced collections (the eager baseline)
	// still drifts back towards the old-derived size.
	h.youngFloor = min(max(pageAlign(h.youngFloor*3/4), pageAlign(minYoungBytes)), h.youngReserve)
	fromOld := h.oldCommitted / newRatio
	youngTarget := min(max(pageAlign(max(fromOld, h.youngFloor)), pageAlign(minYoungBytes)), h.youngReserve)
	if youngTarget < h.youngCommitted {
		h.Region.ReleaseBytes(youngTarget, h.youngCommitted-youngTarget)
	}
	h.youngCommitted = youngTarget
	h.layoutYoung()
}

// CollectFull implements runtime.Runtime (the eager baseline's
// System.gc()). A forced collection that cannot even fit the live set
// is skipped — the mutator will hit ErrOutOfMemory on its next
// allocation instead.
func (h *Heap) CollectFull(aggressive bool) {
	h.AssertLive()
	_ = h.fullGC(aggressive)
}

// Reclaim implements runtime.Runtime: Desiccant's Algorithm 1.
// Collect every generation, resize, then return every free page in
// every space to the OS — from space in its entirety, plus free
// memory in eden, to space and the old generation.
func (h *Heap) Reclaim(aggressive bool) runtime.ReclaimReport {
	h.AssertLive()
	before := h.ResidentBytes()
	// A collection that cannot fit the live set changes nothing, so
	// there is nothing to release: the report stays truthful.
	if err := h.fullGC(aggressive); err == nil {
		// After a full GC all young spaces are empty and the old
		// generation is compacted; release the free pages. The young
		// spaces sit back to back at page-aligned offsets, so their
		// releases (plus the old generation's free tail) coalesce into
		// a single run list handed to the OS in one call.
		var buf [4]osmem.Run
		runs := osmem.AppendRun(buf[:0], h.eden.Base()+h.eden.Used(), h.eden.Free())
		runs = osmem.AppendRun(runs, h.surv[0].Base()+h.surv[0].Used(), h.surv[0].Free())
		runs = osmem.AppendRun(runs, h.surv[1].Base()+h.surv[1].Used(), h.surv[1].Free())
		runs = osmem.AppendRun(runs, h.old.Base()+h.old.Used(), h.old.Free())
		h.Region.ReleaseRuns(runs)
	}
	return h.FinishReclaim(before, h.LiveBytes())
}

// AppendSpaceLayout implements runtime.SpaceLayout: the generational carve
// of the committed heap. Eden/from/to partition the committed young
// generation from offset 0; the old generation occupies its committed
// prefix of [youngReserve, youngReserve+oldCommitted). The invariant
// checker asserts these never overlap and never escape the
// reservation.
func (h *Heap) AppendSpaceLayout(dst []runtime.SpaceRange) []runtime.SpaceRange {
	return append(dst,
		runtime.SpaceRange{Name: "eden", Off: h.eden.Base(), Len: h.eden.Capacity()},
		runtime.SpaceRange{Name: "from", Off: h.surv[h.from].Base(), Len: h.surv[h.from].Capacity()},
		runtime.SpaceRange{Name: "to", Off: h.surv[1-h.from].Base(), Len: h.surv[1-h.from].Capacity()},
		runtime.SpaceRange{Name: "old", Off: h.old.Base(), Len: h.oldCommitted},
	)
}

// Committed returns the committed sizes (young, old) for inspection.
func (h *Heap) Committed() (young, old int64) { return h.youngCommitted, h.oldCommitted }

func (h *Heap) String() string {
	return fmt.Sprintf("hotspot{committed=%dKB young=%dKB old=%dKB live=%dKB resident=%dKB}",
		h.HeapCommitted()/1024, h.youngCommitted/1024, h.oldCommitted/1024,
		h.LiveBytes()/1024, h.ResidentBytes()/1024)
}
