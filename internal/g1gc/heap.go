// Package g1gc simulates a G1-style region-based collector, the §7
// extension target: "for the G1GC, despite having a different GC
// algorithm compared to the Serial GC, it is still based on the
// HotSpot JVM and fulfills the aforementioned requirements, making it
// compatible with Desiccant".
//
// The heap is an array of fixed-size regions (2 MiB). Mutators bump-
// allocate into eden regions; young collections evacuate eden +
// survivor regions; mixed collections additionally evacuate the old
// regions with the most garbage (highest reclamation efficiency
// first, G1's collection-set policy). Emptied regions go back on the
// free list but — like the committed pages of the serial heap — their
// physical pages stay resident until Desiccant's reclaim releases
// them, so the frozen-garbage story carries over unchanged.
package g1gc

import (
	"fmt"
	"sort"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
)

// RuntimeName is the name this package registers with the runtime
// registry.
const RuntimeName = "g1"

func init() { runtime.Register(RuntimeName, New) }

// RegionSize is the G1 heap region granularity.
const RegionSize = 2 << 20

// regionKind is the role a region currently plays.
type regionKind uint8

const (
	regionFree regionKind = iota
	regionEden
	regionSurvivor
	regionOld
	regionHumongous
)

func (k regionKind) String() string {
	switch k {
	case regionFree:
		return "free"
	case regionEden:
		return "eden"
	case regionSurvivor:
		return "survivor"
	case regionOld:
		return "old"
	case regionHumongous:
		return "humongous"
	default:
		return "kind(?)"
	}
}

// The G1 options that matter here, fixed. The heap gets 85% of the
// instance budget, as the serial heap does. The fractions are typed
// float64 constants, like the serial heap's ratios.
const (
	// heapPercent of the memory budget is -Xmx.
	heapPercent = 85
	// youngTargetFraction bounds eden: a young collection triggers
	// once eden regions exceed this fraction of the heap.
	youngTargetFraction float64 = 0.12
	// mixedGarbageThreshold is G1's liveness threshold: old regions
	// whose garbage fraction exceeds it are candidates for the mixed
	// collection set.
	mixedGarbageThreshold float64 = 0.35
	// mixedCountTarget caps how many old regions one mixed collection
	// evacuates.
	mixedCountTarget = 8
	// ihop (initiating heap occupancy) starts the old-region marking
	// that enables mixed collections.
	ihop float64 = 0.45
	// tenureThreshold promotes survivors after this many collections.
	tenureThreshold = 2
)

// region is one heap region.
type region struct {
	index   int
	kind    regionKind
	objects []mm.Ref
	top     int64 // bump offset within the region
	// humongous runs: the number of consecutive regions the leading
	// region spans (0 for followers).
	spans int
}

func (r *region) used() int64 { return r.top }

func (h *Heap) live(r *region) int64 { return h.Pool.LiveBytes(r.objects) }

func (h *Heap) garbageFraction(r *region) float64 {
	if r.top == 0 {
		return 0
	}
	return float64(r.top-h.live(r)) / float64(r.top)
}

// Heap is a simulated G1 heap.
type Heap struct {
	runtime.HeapCore

	regions []*region
	free    []int // free-region indices (LIFO)

	eden      []*region
	survivors []*region
	old       []*region

	marked bool // concurrent mark completed; mixed collections enabled

	// reclaimRuns is the reusable run buffer Reclaim coalesces free
	// ranges into before releasing them in one call.
	reclaimRuns []osmem.Run
}

var _ runtime.Runtime = (*Heap)(nil)

// New sizes the region array from cfg's memory budget and reserves it
// inside cfg's address space. A budget whose heap holds fewer than two
// regions is an error.
func New(cfg runtime.Config) (*Heap, error) {
	maxHeap := cfg.MemoryBudget * heapPercent / 100
	if maxHeap < 2*RegionSize {
		return nil, fmt.Errorf("g1gc: a %d-byte budget leaves a heap smaller than two regions", cfg.MemoryBudget)
	}
	n := int(maxHeap / RegionSize)
	h := &Heap{HeapCore: runtime.NewHeapCore("g1gc", "g1-heap", int64(n)*RegionSize, cfg)}
	h.regions = make([]*region, n)
	for i := n - 1; i >= 0; i-- {
		h.regions[i] = &region{index: i, kind: regionFree}
		h.free = append(h.free, i)
	}
	return h, nil
}

// Release implements runtime.Runtime.
func (h *Heap) Release() {
	h.AssertLive()
	for _, r := range h.regions {
		h.Pool.PutList(r.objects)
		r.objects = nil
	}
	h.ReleasePool()
}

// HeapCommitted implements runtime.Runtime: bytes in non-free regions.
func (h *Heap) HeapCommitted() int64 {
	h.AssertLive()
	var n int64
	for _, r := range h.regions {
		if r.kind != regionFree {
			n += RegionSize
		}
	}
	return n
}

// LiveBytes implements runtime.Runtime.
func (h *Heap) LiveBytes() int64 {
	h.AssertLive()
	var n int64
	for _, r := range h.regions {
		n += h.live(r)
	}
	return n
}

// takeFree pops a free region and assigns it a role. A region that
// never held an object takes its object list from the pool.
func (h *Heap) takeFree(kind regionKind) *region {
	if len(h.free) == 0 {
		return nil
	}
	idx := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	r := h.regions[idx]
	r.kind = kind
	r.top = 0
	r.spans = 0
	r.objects = r.objects[:0]
	if cap(r.objects) == 0 {
		r.objects = h.Pool.List()
	}
	return r
}

// release returns a region to the free list. Pages stay resident —
// that is the frozen garbage a frozen G1 instance accumulates.
func (h *Heap) release(r *region) {
	r.kind = regionFree
	r.objects = r.objects[:0]
	r.top = 0
	r.spans = 0
	h.free = append(h.free, r.index)
}

func (h *Heap) base(r *region) int64 { return int64(r.index) * RegionSize }

// place bump-allocates ref into region r (must fit).
func (h *Heap) place(r *region, ref mm.Ref) {
	o := h.Pool.At(ref)
	o.Offset = h.base(r) + r.top
	h.Region.TouchBytes(o.Offset, o.Size, true)
	r.objects = append(r.objects, ref)
	r.top += o.Size
}

// Allocate implements runtime.Runtime.
func (h *Heap) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	if size <= 0 {
		panic("g1gc: non-positive allocation")
	}
	h.AssertLive()
	o := h.Pool.New(size, opts.Weak)

	if size > RegionSize/2 {
		if h.allocateHumongous(o) {
			return o, nil
		}
		h.fullCollect(false)
		if h.allocateHumongous(o) {
			return o, nil
		}
		return h.Fail(o, runtime.ErrOutOfMemory)
	}

	// Eden bump allocation; trigger a young (or mixed) collection when
	// the eden target is reached.
	if len(h.eden) > 0 {
		last := h.eden[len(h.eden)-1]
		if last.top+size <= RegionSize {
			h.place(last, o)
			return o, nil
		}
	}
	if float64(len(h.eden)+1)*RegionSize > youngTargetFraction*float64(len(h.regions))*RegionSize {
		h.collect()
	}
	r := h.takeFree(regionEden)
	if r == nil {
		h.fullCollect(false)
		r = h.takeFree(regionEden)
		if r == nil {
			return h.Fail(o, runtime.ErrOutOfMemory)
		}
	}
	h.eden = append(h.eden, r)
	h.place(r, o)
	return o, nil
}

// allocateHumongous places ref across consecutive free regions.
func (h *Heap) allocateHumongous(ref mm.Ref) bool {
	o := h.Pool.At(ref)
	need := int((o.Size + RegionSize - 1) / RegionSize)
	// Find a run of free regions (scan; region counts are small).
	run := 0
	start := -1
	freeSet := make(map[int]bool, len(h.free))
	for _, idx := range h.free {
		freeSet[idx] = true
	}
	for i := 0; i < len(h.regions); i++ {
		if freeSet[i] {
			if run == 0 {
				start = i
			}
			run++
			if run == need {
				break
			}
		} else {
			run = 0
		}
	}
	if run < need {
		return false
	}
	// Claim the run.
	claimed := make(map[int]bool, need)
	for i := start; i < start+need; i++ {
		claimed[i] = true
	}
	kept := h.free[:0]
	for _, idx := range h.free {
		if !claimed[idx] {
			kept = append(kept, idx)
		}
	}
	h.free = kept
	lead := h.regions[start]
	lead.kind = regionHumongous
	lead.spans = need
	lead.top = o.Size
	if cap(lead.objects) == 0 {
		lead.objects = h.Pool.List()
	}
	lead.objects = append(lead.objects[:0], ref)
	for i := start + 1; i < start+need; i++ {
		f := h.regions[i]
		f.kind = regionHumongous
		f.spans = 0
		f.top = 0
		f.objects = f.objects[:0]
	}
	o.Offset = h.base(lead)
	h.Region.TouchBytes(o.Offset, o.Size, true)
	return true
}

// occupancy is the non-free fraction of the heap.
func (h *Heap) occupancy() float64 {
	return float64(len(h.regions)-len(h.free)) / float64(len(h.regions))
}

// collect runs a young collection — or a mixed one when marking has
// completed and garbage-rich old regions exist.
func (h *Heap) collect() {
	// IHOP: crossing the occupancy threshold "completes" the
	// concurrent mark, enabling mixed collections (the concurrent
	// cycle itself is folded into the pause cost).
	if h.occupancy() >= ihop {
		h.marked = true
	}
	cset := append([]*region{}, h.eden...)
	cset = append(cset, h.survivors...)
	mixed := false
	if h.marked {
		victims := h.mixedCandidates()
		if len(victims) > 0 {
			cset = append(cset, victims...)
			mixed = true
		}
	}
	h.evacuate(cset, false, mixed)
	if mixed {
		h.marked = false
		h.GC.FullGCs++ // count mixed cycles alongside majors
	} else {
		h.GC.YoungGCs++
	}
}

// mixedCandidates returns the old regions with the highest garbage
// fractions above the threshold — G1's reclamation-efficiency-first
// collection set, the same cost/benefit reasoning Desiccant's §4.5.2
// estimator applies across instances.
func (h *Heap) mixedCandidates() []*region {
	var out []*region
	for _, r := range h.old {
		if h.garbageFraction(r) >= mixedGarbageThreshold {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return h.garbageFraction(out[i]) > h.garbageFraction(out[j])
	})
	if len(out) > mixedCountTarget {
		out = out[:mixedCountTarget]
	}
	return out
}

// evacuate copies the live objects of the collection set into fresh
// survivor/old regions and frees the evacuated regions. full marks a
// mixed or full collection for the observer.
func (h *Heap) evacuate(cset []*region, aggressive, full bool) {
	inSet := make(map[*region]bool, len(cset))
	for _, r := range cset {
		inSet[r] = true
	}
	var traced, moved, collected int64
	var survivorDst, oldDst *region
	var survStart, oldStart int64

	// Evacuated objects bump into their destination region back to
	// back, so each destination's touches are deferred and flushed as
	// one contiguous span — when the destination fills up, and finally
	// after the copy loop.
	flushDst := func(dst *region, start int64) {
		if dst != nil && dst.top > start {
			h.Region.TouchBytes(h.base(dst)+start, dst.top-start, true)
		}
	}

	allocInto := func(kind regionKind, ref mm.Ref, o *mm.Object) bool {
		dst := survivorDst
		if kind == regionOld {
			dst = oldDst
		}
		if dst == nil || dst.top+o.Size > RegionSize {
			dst = h.takeFree(kind)
			if dst == nil {
				return false
			}
			if kind == regionOld {
				flushDst(oldDst, oldStart)
				h.old = append(h.old, dst)
				oldDst = dst
				oldStart = 0
			} else {
				flushDst(survivorDst, survStart)
				h.survivors = append(h.survivors, dst)
				survivorDst = dst
				survStart = 0
			}
		}
		o.Offset = h.base(dst) + dst.top
		dst.objects = append(dst.objects, ref)
		dst.top += o.Size
		return true
	}

	// Survivor regions evacuated this cycle leave h.survivors first;
	// fresh destination regions are appended as needed.
	h.filterOut(&h.survivors, inSet)
	h.filterOut(&h.old, inSet)
	h.eden = h.eden[:0]

	for _, r := range cset {
		failedAt := -1
		for i, ref := range r.objects {
			o := h.Pool.At(ref)
			if o.Collectible(aggressive) {
				o.Dead = true
				collected += o.Size
				h.Pool.Free(ref)
				continue
			}
			traced += o.Size
			o.Age++
			kind := regionSurvivor
			if o.Age > tenureThreshold || r.kind == regionOld {
				kind = regionOld
				o.Age = 0
			}
			if !allocInto(kind, ref, o) {
				failedAt = i
				break
			}
			moved += o.Size
			if kind == regionOld {
				h.GC.PromotedBytes += o.Size
			}
		}
		if failedAt < 0 {
			h.release(r)
			continue
		}
		// Evacuation failure: the objects not yet copied stay in
		// place and the region is promoted wholesale to old (G1's
		// to-space-exhausted handling). Already-evacuated objects
		// belong to their destination regions now. The remainder is
		// filtered in place, and its dead objects are dropped here.
		remaining := r.objects[:0]
		for _, ref := range r.objects[failedAt:] {
			if h.Pool.At(ref).Dead {
				h.Pool.Free(ref)
				continue
			}
			remaining = append(remaining, ref)
		}
		r.objects = remaining
		r.kind = regionOld
		h.old = append(h.old, r)
	}
	flushDst(survivorDst, survStart)
	flushDst(oldDst, oldStart)
	h.GC.CollectedBytes += collected
	h.NotePause(full, mm.GCCycle(traced, moved, collected), collected)
}

// filterOut removes regions present in set from *list in place.
func (h *Heap) filterOut(list *[]*region, set map[*region]bool) {
	kept := (*list)[:0]
	for _, r := range *list {
		if !set[r] {
			kept = append(kept, r)
		}
	}
	*list = kept
}

// fullCollect evacuates everything (and sweeps humongous runs) — the
// System.gc() path.
func (h *Heap) fullCollect(aggressive bool) {
	h.GC.FullGCs++
	h.sweepHumongous(aggressive)
	cset := append([]*region{}, h.eden...)
	cset = append(cset, h.survivors...)
	cset = append(cset, h.old...)
	h.evacuate(cset, aggressive, true)
	h.marked = false
}

// sweepHumongous frees dead humongous runs.
func (h *Heap) sweepHumongous(aggressive bool) {
	for _, r := range h.regions {
		if r.kind != regionHumongous || r.spans == 0 {
			continue
		}
		o := h.Pool.At(r.objects[0])
		if !o.Collectible(aggressive) {
			continue
		}
		o.Dead = true
		h.GC.CollectedBytes += o.Size
		h.Pool.Free(r.objects[0])
		spans := r.spans
		for i := r.index; i < r.index+spans; i++ {
			h.release(h.regions[i])
		}
	}
}

// CollectFull implements runtime.Runtime.
func (h *Heap) CollectFull(aggressive bool) {
	h.AssertLive()
	h.fullCollect(aggressive)
}

// Reclaim implements runtime.Runtime: full collection, then release
// the physical pages of every free region and every region's free
// tail back to the OS — §7's recipe applied to G1's region layout.
func (h *Heap) Reclaim(aggressive bool) runtime.ReclaimReport {
	h.AssertLive()
	before := h.ResidentBytes()
	h.fullCollect(aggressive)
	// Walk the region array in index order, coalescing free regions
	// and free tails into runs (joins land on region boundaries, which
	// are page-aligned), and hand the whole batch to the OS at once.
	runs := h.reclaimRuns[:0]
	for _, r := range h.regions {
		switch r.kind {
		case regionFree:
			runs = osmem.AppendRun(runs, h.base(r), RegionSize)
		case regionHumongous:
			if r.spans > 0 {
				// Tail beyond the object in its final region.
				end := h.base(r) + h.Pool.At(r.objects[0]).Size
				runEnd := h.base(r) + int64(r.spans)*RegionSize
				runs = osmem.AppendRun(runs, end, runEnd-end)
			}
		default:
			runs = osmem.AppendRun(runs, h.base(r)+r.top, RegionSize-r.top)
		}
	}
	h.Region.ReleaseRuns(runs)
	h.reclaimRuns = runs[:0]
	return h.FinishReclaim(before, h.LiveBytes())
}

// RegionCounts reports the number of regions in each role, for tests
// and inspection.
func (h *Heap) RegionCounts() map[string]int {
	out := map[string]int{}
	for _, r := range h.regions {
		out[r.kind.String()]++
	}
	return out
}

func (h *Heap) String() string {
	return fmt.Sprintf("g1{regions=%d free=%d eden=%d surv=%d old=%d live=%dKB resident=%dKB}",
		len(h.regions), len(h.free), len(h.eden), len(h.survivors), len(h.old),
		h.LiveBytes()/1024, h.ResidentBytes()/1024)
}
