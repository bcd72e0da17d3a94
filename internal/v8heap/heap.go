package v8heap

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/runtime"
)

// RuntimeName is the name this package registers with the runtime
// registry.
const RuntimeName = "v8"

func init() { runtime.Register(RuntimeName, New) }

// The V8 heap options that matter to the paper, fixed at their
// Lambda/Node-14 values. The old space and the semispace ceiling are
// derived from the instance budget in New.
const (
	// oldSpacePercent of the memory budget is --max-old-space-size:
	// the old generation's committed ceiling.
	oldSpacePercent = 75
	// semiSpaceMaxDivisor sizes the per-semispace ceiling at
	// budget/semiSpaceMaxDivisor: the paper observes the young
	// generation's upper bound scaling with the heap (32 MiB total for
	// a 256 MiB heap, 128 MiB for 1 GiB).
	semiSpaceMaxDivisor = 16
	// semiSpaceInitial is the starting semispace size.
	semiSpaceInitial = 2 * ChunkSize
	// shrinkAllocFraction gates the young shrink: the generation only
	// shrinks when the bytes allocated since the last full GC are
	// below this fraction of the young generation's total size — the
	// allocation-rate condition of §3.2.2 in a time-free form.
	shrinkAllocFraction float64 = 0.25
)

func chunkAlign(n int64) int64 {
	a := (n + ChunkSize - 1) / ChunkSize * ChunkSize
	if a < ChunkSize {
		a = ChunkSize
	}
	return a
}

// Heap is a simulated V8 heap.
type Heap struct {
	runtime.HeapCore
	arena *arena

	semiMax int64 // per-semispace ceiling
	semi    int64 // current per-semispace size
	spaces  [2]*semispace
	from    int // index of the allocating semispace
	old     *oldSpace

	// Young resize policy state.
	accumLive     int64 // live bytes found by GCs since the last expansion
	allocSinceGC  int64 // bytes allocated since the last full GC
	weakCollected int64 // weak bytes cleared since last ConsumeDeoptPenalty
	// oldSoftLimit is V8's old-space allocation limit: once the old
	// generation's committed size passes it, the next safe point runs
	// a major GC. Recomputed after every major GC from the live size.
	oldSoftLimit int64

	// Reusable object lists of the collectors. A scavenge can run a
	// full GC mid-loop, so the two keep separate lists.
	scavengeScratch []mm.Ref
	youngScratch    []mm.Ref
	survScratch     []mm.Ref
}

var (
	_ runtime.Runtime     = (*Heap)(nil)
	_ runtime.SpaceLayout = (*Heap)(nil)
)

// New derives the old-space limit and the semispace ceiling from
// cfg's memory budget, reserves the chunk arena inside cfg's address
// space and sets up the spaces. A budget whose semispace ceiling is
// below the initial semispace size is an error.
func New(cfg runtime.Config) (*Heap, error) {
	oldLimit := cfg.MemoryBudget * oldSpacePercent / 100
	semiMax := chunkAlign(cfg.MemoryBudget / semiSpaceMaxDivisor)
	if semiMax < semiSpaceInitial {
		return nil, fmt.Errorf("v8heap: a %d-byte budget leaves a semispace ceiling of %d bytes, below the initial %d", cfg.MemoryBudget, semiMax, semiSpaceInitial)
	}
	reserve := oldLimit + 4*semiMax + 16<<20
	h := &Heap{HeapCore: runtime.NewHeapCore("v8heap", "v8-heap", chunkAlign(reserve), cfg), semiMax: semiMax, semi: semiSpaceInitial}
	h.arena = newArena(h.Pool, h.Region)
	h.spaces[0] = newSemispace("new-from", h.arena, h.semi)
	h.spaces[1] = newSemispace("new-to", h.arena, h.semi)
	h.old = newOldSpace(h.arena, oldLimit)
	h.oldSoftLimit = min(initialOldSoftLimit, oldLimit)
	h.scavengeScratch = h.Pool.List()
	h.youngScratch = h.Pool.List()
	h.survScratch = h.Pool.List()
	return h, nil
}

// HeapCommitted implements runtime.Runtime: chunk memory currently
// held by all spaces (V8's own consumption counters, which Desiccant
// reads directly on JavaScript instances — §4.5.2).
func (h *Heap) HeapCommitted() int64 {
	h.AssertLive()
	return h.spaces[0].committedBytes() + h.spaces[1].committedBytes() + h.old.committedBytes()
}

// LiveBytes implements runtime.Runtime.
func (h *Heap) LiveBytes() int64 {
	h.AssertLive()
	return h.spaces[0].liveBytes() + h.spaces[1].liveBytes() + h.old.liveBytes()
}

// YoungGenerationBytes reports the young generation's total size
// (both semispaces), the quantity whose runaway doubling the paper
// demonstrates with fft.
func (h *Heap) YoungGenerationBytes() int64 { return 2 * h.semi }

// ConsumeDeoptPenalty implements runtime.Runtime: returns the weak
// bytes cleared by aggressive collections since the last call. The
// executor converts this into the function-specific JIT
// deoptimization slowdown of §4.7.
func (h *Heap) ConsumeDeoptPenalty() float64 {
	h.AssertLive()
	w := h.weakCollected
	h.weakCollected = 0
	return float64(w)
}

// Release implements runtime.Runtime.
func (h *Heap) Release() {
	h.AssertLive()
	for _, s := range h.spaces {
		h.giveBack(s.chunks)
	}
	h.giveBack(h.old.chunks)
	h.giveBack(h.arena.spare)
	h.Pool.PutList(h.scavengeScratch)
	h.Pool.PutList(h.youngScratch)
	h.Pool.PutList(h.survScratch)
	h.ReleasePool()
}

// giveBack hands the object lists of chunks to the pool for the next
// heap.
func (h *Heap) giveBack(chunks []*chunk) {
	for _, c := range chunks {
		h.Pool.PutList(c.objects)
		c.objects = nil
	}
}

// Allocate implements runtime.Runtime. An ordinary object is a run of
// one cluster, placed by the same from-space bump as AllocateRun's.
func (h *Heap) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	if size <= 0 {
		panic("v8heap: non-positive allocation")
	}
	h.AssertLive()
	o := h.Pool.New(size, opts.Weak)
	h.allocSinceGC += size

	if size > LargeObjectThreshold {
		if err := h.majorGCIfPastLimit(); err != nil {
			return h.Fail(o, err)
		}
		if h.old.tryAllocate(o) == mm.NoRef {
			return o, nil
		}
		if err := h.fullGC(false); err != nil {
			return h.Fail(o, err)
		}
		if h.old.tryAllocate(o) == mm.NoRef {
			return o, nil
		}
		return h.Fail(o, runtime.ErrOutOfMemory)
	}

	if h.fromSpace().tryAllocate(o) == mm.NoRef {
		return o, nil
	}
	if err := h.scavenge(); err != nil {
		return h.Fail(o, err)
	}
	if h.fromSpace().tryAllocate(o) == mm.NoRef {
		return o, nil
	}
	// Young generation exhausted even after a scavenge (e.g. it is
	// still small): fall back on the old space, then a full GC.
	if h.old.tryAllocate(o) == mm.NoRef {
		return o, nil
	}
	if err := h.fullGC(false); err != nil {
		return h.Fail(o, err)
	}
	if h.fromSpace().tryAllocate(o) == mm.NoRef || h.old.tryAllocate(o) == mm.NoRef {
		return o, nil
	}
	return h.Fail(o, runtime.ErrOutOfMemory)
}

// Headroom implements runtime.Runtime: the bytes the from space bumps
// before its next scavenge (semispace.headroom). Objects above the
// large-object threshold, which is below a chunk's payload, skip the
// from space, so they get none.
func (h *Heap) Headroom(maxSize int64) int64 {
	h.AssertLive()
	if maxSize > LargeObjectThreshold {
		return 0
	}
	return h.fromSpace().headroom(maxSize)
}

// AllocateRun implements runtime.Runtime: the run bumps the from space
// where its clusters would have landed one after another, one piece
// per chunk it spans.
func (h *Heap) AllocateRun(size int64, n int32) mm.Ref {
	h.AssertLive()
	r := h.Pool.NewRun(size, n)
	h.allocSinceGC += int64(n) * size
	if size > LargeObjectThreshold || h.fromSpace().tryAllocate(r) != mm.NoRef {
		panic(fmt.Sprintf("v8heap: run of %d clusters of %d bytes outside the headroom", n, size))
	}
	return r
}

// bytesOf returns the bytes of r, or 0 for NoRef: what a placement
// that returned r as its unplaced rest left over.
func (h *Heap) bytesOf(r mm.Ref) int64 {
	if r == mm.NoRef {
		return 0
	}
	return h.Pool.At(r).Bytes()
}

func (h *Heap) fromSpace() *semispace { return h.spaces[h.from] }
func (h *Heap) toSpace() *semispace   { return h.spaces[1-h.from] }

// scavenge is the young-generation copying collection: live objects
// move to the other semispace (second-time survivors promote to old),
// the semispaces swap roles, and the expansion policy runs — the
// accumulated-live-bytes doubling of §3.2.2.
//
// It returns ErrOutOfMemory when a survivor fits neither the to space
// nor, after a full GC, the old space or the from space. The objects
// it had not yet moved then go back to the from space, past its
// capacity if need be, and the semispaces keep their roles: the heap
// loses nothing, and the instance the failed allocation kills can be
// released.
//
// A run is collected as its clusters would be one after another. Its
// dead prefix is collected, and its live clusters share one age. A
// young run's oldest clusters fill the to space (semiBatch.tryAllocate);
// once one cluster finds no room there, none of the same size does
// until a full GC empties the to space, so the rest is promoted
// (oldSpace.tryAllocate) at age 0. Only the cluster the old space
// cannot take goes alone through the full GC, and the clusters after
// it start over at the to space.
func (h *Heap) scavenge() error {
	h.GC.YoungGCs++
	from, to := h.fromSpace(), h.toSpace()
	objs := from.takeAll(h.scavengeScratch[:0])

	// Copies into the to space go through a deferred-touch batch that
	// flushes one contiguous span per chunk instead of one touch per
	// object. Promotions touch disjoint old-space pages immediately.
	tb := to.beginBatch()
	var traced, copied, promoted, collected int64
	var err error
objects:
	for i, r := range objs {
		o := h.Pool.At(r)
		if o.Dead {
			collected += o.Bytes()
			h.Pool.Free(r)
			continue
		}
		collected += o.DropDead()
		traced += o.Bytes()
		age := o.Age + 1
		for r != mm.NoRef {
			if age <= 1 {
				h.Pool.At(r).Age = age
				bytes := h.Pool.At(r).Bytes()
				rest := tb.tryAllocate(r)
				copied += bytes - h.bytesOf(rest)
				if r = rest; r == mm.NoRef {
					break
				}
			}
			h.Pool.At(r).Age = 0
			bytes := h.Pool.At(r).Bytes()
			rest := h.old.tryAllocate(r)
			promoted += bytes - h.bytesOf(rest)
			if r = rest; r == mm.NoRef {
				break
			}
			// The old space is at its limit: a full GC must make room
			// for the next cluster. Park it back afterwards. The batch
			// is flushed first — the full GC inspects and reshuffles
			// the semispaces — and rearmed after.
			next := h.Pool.Split(r, 1)
			size := h.Pool.At(r).Size
			tb.sync()
			err = h.fullGC(false)
			tb = to.beginBatch()
			if err != nil || h.old.tryAllocate(r) != mm.NoRef && from.tryAllocate(r) != mm.NoRef {
				// The clusters after this one were never reached: they
				// keep their age and go untraced.
				from.force(r)
				if next != mm.NoRef {
					h.Pool.At(next).Age = age - 1
					traced -= h.Pool.At(next).Bytes()
					from.force(next)
				}
				for _, q := range objs[i+1:] {
					from.force(q)
				}
				err = runtime.ErrOutOfMemory
				break objects
			}
			promoted += size
			r = next
		}
	}
	tb.sync()
	h.scavengeScratch = objs[:0]
	h.GC.PromotedBytes += promoted
	h.GC.CollectedBytes += collected
	h.NotePause(false, mm.GCCycle(traced, copied+promoted, 0), collected)
	if err != nil {
		return err
	}
	h.from = 1 - h.from

	// Expansion policy: if the live bytes found since the last
	// expansion exceed the young generation size, double it. A high
	// allocation rate therefore ratchets the generation up, and
	// nothing on this path ever shrinks it — fft's pathology.
	h.accumLive += traced
	if h.accumLive > h.YoungGenerationBytes() && h.semi < h.semiMax {
		h.semi = min(h.semi*2, h.semiMax)
		h.spaces[0].capacity = h.semi
		h.spaces[1].capacity = h.semi
		h.accumLive = 0
	}

	// Old-space pressure: promotions may have pushed the old
	// generation past its allocation limit; V8 schedules a major GC
	// at the next safe point.
	return h.majorGCIfPastLimit()
}

// initialOldSoftLimit is the starting old-space allocation limit.
const initialOldSoftLimit = int64(24) << 20

// majorGCIfPastLimit runs a major collection when the old space has
// grown past its allocation limit — V8's heap-growing strategy, which
// bounds dead tenured data between major GCs.
func (h *Heap) majorGCIfPastLimit() error {
	if h.old.committedBytes() > h.oldSoftLimit {
		return h.fullGC(false)
	}
	return nil
}

// fullGC is the mark-sweep major collection plus the resizing phase.
// It returns ErrOutOfMemory when a young survivor fits neither the
// from space nor the old space. That takes a young generation spread
// over both semispaces, which only a scavenge that fell back on its
// from space leaves behind: the from space alone always holds the
// survivors of its own objects. The survivor then stays young, past
// the from space's capacity, and the collection completes, so the
// heap loses nothing.
//
// Runs go as their clusters would one after another, as in scavenge:
// a run drops its dead prefix, a second-time survivor promotes as many
// clusters as the old space takes and keeps the rest young, and a
// survivor fills the from space, then the old space. Once neither
// takes a cluster, the rest of the run is forced past the capacity:
// the from space takes no bump there, and the old space took no
// cluster of that size. The old space sweeps in place.
func (h *Heap) fullGC(aggressive bool) error {
	h.GC.FullGCs++
	var traced, moved, collected int64

	// Young generation: evacuate as a scavenge would, compacting the
	// survivors into the current from-space.
	young := h.toSpace().takeAll(h.fromSpace().takeAll(h.youngScratch[:0]))
	survivors := h.survScratch[:0]
	for _, r := range young {
		o := h.Pool.At(r)
		if o.Collectible(aggressive) {
			if o.Weak && !o.Dead {
				h.weakCollected += o.Bytes()
			}
			o.Dead = true
			collected += o.Bytes()
			h.Pool.Free(r)
			continue
		}
		collected += o.DropDead()
		traced += o.Bytes()
		o.Age++
		if o.Age > 1 {
			o.Age = 0
			bytes := o.Bytes()
			rest := h.old.tryAllocate(r)
			moved += bytes - h.bytesOf(rest)
			h.GC.PromotedBytes += bytes - h.bytesOf(rest)
			if r = rest; r == mm.NoRef {
				continue
			}
		}
		survivors = append(survivors, r)
	}
	var err error
	from := h.fromSpace()
	fb := from.beginBatch()
	for _, r := range survivors {
		moved += h.Pool.At(r).Bytes()
		if r = fb.tryAllocate(r); r == mm.NoRef {
			continue
		}
		if r = h.old.tryAllocate(r); r == mm.NoRef {
			continue
		}
		fb.sync()
		from.force(r)
		fb = from.beginBatch()
		err = runtime.ErrOutOfMemory
	}
	fb.sync()
	h.youngScratch = young[:0]
	h.survScratch = survivors[:0]

	// Old generation: mark-sweep in place, freeing empty chunks.
	oldCollected, weak := h.old.sweep(aggressive)
	collected += oldCollected
	h.weakCollected += weak
	traced += h.old.liveBytes()

	h.GC.CollectedBytes += collected
	h.NotePause(true, mm.GCCycle(traced, moved, collected), collected)
	h.resize()
	h.allocSinceGC = 0

	// Heap-growing strategy: the next major GC fires once the old
	// space doubles its live size (plus slack), as V8's allocation
	// limit does.
	h.oldSoftLimit = min(max(2*h.old.liveBytes()+initialOldSoftLimit/2, initialOldSoftLimit), h.old.limit)
	return err
}

// resize is the post-major-GC sizing phase. The old generation has
// already shrunk chunk-wise during the sweep. The young generation
// shrinks to twice its live size only when the allocation rate is
// below the threshold; when it does, V8 also releases the free pages
// of the to space.
func (h *Heap) resize() {
	committedBefore := h.HeapCommitted()
	defer func() { h.NoteResize(committedBefore, h.HeapCommitted()) }()
	if float64(h.allocSinceGC) >= shrinkAllocFraction*float64(h.YoungGenerationBytes()) {
		return // allocation rate too high: never shrink (§3.2.2)
	}
	live := h.fromSpace().liveBytes()
	target := chunkAlign(max(2*live, semiSpaceInitial))
	if target >= h.semi {
		return
	}
	h.semi = target
	h.spaces[0].capacity = h.semi
	h.spaces[1].capacity = h.semi
	h.spaces[0].trimToCapacity()
	h.spaces[1].trimToCapacity()
	// Shrinking also releases the to space's free pages: they are not
	// needed until the next scavenge.
	h.toSpace().releaseFreePages()
}

// AppendSpaceLayout implements runtime.SpaceLayout: one range per live
// chunk, named after the owning space. V8's heap is discontinuous, so
// the structural law here is per-chunk: two chunks must never share a
// slot (a double-allocated slot shows up as an overlap) and every
// chunk must sit inside the arena reservation.
func (h *Heap) AppendSpaceLayout(dst []runtime.SpaceRange) []runtime.SpaceRange {
	for _, s := range h.spaces {
		for _, c := range s.chunks {
			dst = append(dst, runtime.SpaceRange{Name: s.name, Off: c.base(), Len: ChunkSize})
		}
	}
	for _, c := range h.old.chunks {
		dst = append(dst, runtime.SpaceRange{Name: "old", Off: c.base(), Len: ChunkSize})
	}
	for _, e := range h.old.large {
		for _, c := range e.chunks {
			dst = append(dst, runtime.SpaceRange{Name: "lo", Off: c.base(), Len: ChunkSize})
		}
	}
	return dst
}

// EachPlaced calls f with every object the heap lists and the region
// offset of the chunk holding it, space by space: an object's bytes
// start at that offset plus its chunk-relative Offset. Tests use it to
// compare where two heaps placed their data.
func (h *Heap) EachPlaced(f func(r mm.Ref, chunk int64)) {
	h.AssertLive()
	each := func(chunks []*chunk) {
		for _, c := range chunks {
			for _, r := range c.objects {
				f(r, c.base())
			}
		}
	}
	each(h.spaces[0].chunks)
	each(h.spaces[1].chunks)
	each(h.old.chunks)
	for _, e := range h.old.large {
		f(e.obj, e.chunks[0].base())
	}
}

// CollectFull implements runtime.Runtime (global.gc(), the eager
// baseline's hook). The stock V8 interface performs an aggressive
// collection; §4.7's 7-line patch adds the option to keep weakly
// referenced objects, which Desiccant uses. A collection that leaves
// a survivor young for lack of room still completes (see fullGC); the
// mutator's next allocation that needs the room fails instead.
func (h *Heap) CollectFull(aggressive bool) {
	h.AssertLive()
	_ = h.fullGC(aggressive)
}

// Reclaim implements runtime.Runtime (global.reclaim): collect, let
// the resize policy shrink, then release the free pages the resize
// left behind — every space, headers excepted (98.4% of a chunk is
// releasable).
func (h *Heap) Reclaim(aggressive bool) runtime.ReclaimReport {
	h.AssertLive()
	before := h.ResidentBytes()
	_ = h.fullGC(aggressive) // complete even when out of room, as in CollectFull
	h.spaces[0].releaseFreePages()
	h.spaces[1].releaseFreePages()
	h.old.releaseFreePages()
	return h.FinishReclaim(before, h.LiveBytes())
}

func (h *Heap) String() string {
	return fmt.Sprintf("v8{semi=%dKB committed=%dKB live=%dKB resident=%dKB}",
		h.semi/1024, h.HeapCommitted()/1024, h.LiveBytes()/1024, h.ResidentBytes()/1024)
}
