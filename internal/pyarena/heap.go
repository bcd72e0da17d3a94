// Package pyarena simulates a CPython-style arena allocator, the
// other §7 extension target: "the mainstream CPython runtime manages
// memory in arenas of 256KB and only releases the entire memory of an
// arena when it becomes empty". Freed blocks return to per-arena free
// lists and are reused by later allocations, but one live object pins
// a whole arena — classic fragmentation, and under the FaaS freeze
// semantics, classic frozen garbage.
//
// The package implements runtime.Runtime, so Desiccant manages it
// exactly as it manages HotSpot and V8: the added Reclaim walks the
// allocator's free lists and releases the free pages of partially
// occupied arenas that stock CPython keeps pinned.
package pyarena

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
)

// RuntimeName is the name this package registers with the runtime
// registry.
const RuntimeName = "pyarena"

func init() { runtime.Register(RuntimeName, New) }

// ArenaSize is CPython's arena granularity.
const ArenaSize = 256 << 10

// The heap's fixed settings.
const (
	// heapPercent of the memory budget bounds the arena pool.
	heapPercent = 85
	// gcThreshold is the allocation count that triggers the cyclic
	// collector (CPython's generation-0 threshold, flattened).
	gcThreshold = 700
)

// Heap is a simulated CPython object heap.
type Heap struct {
	runtime.HeapCore
	arenas []*arena

	sinceGC int

	// scratch is the reusable run buffer the sweep and reclaim paths
	// coalesce free ranges into before releasing them in one call.
	scratch []osmem.Run
}

type arena struct {
	index   int
	mapped  bool
	objects []mm.Ref // sorted by ascending arena-relative offset
}

var _ runtime.Runtime = (*Heap)(nil)

// New sizes the arena pool from cfg's memory budget and reserves it
// inside cfg's address space. A budget whose pool cannot hold one
// arena is an error.
func New(cfg runtime.Config) (*Heap, error) {
	limit := cfg.MemoryBudget * heapPercent / 100
	if limit < ArenaSize {
		return nil, fmt.Errorf("pyarena: a %d-byte budget leaves a heap smaller than one arena", cfg.MemoryBudget)
	}
	return &Heap{HeapCore: runtime.NewHeapCore("pyarena", "py-arenas", limit, cfg)}, nil
}

// Release implements runtime.Runtime.
func (h *Heap) Release() {
	h.AssertLive()
	for _, a := range h.arenas {
		h.Pool.PutList(a.objects)
		a.objects = nil
	}
	h.ReleasePool()
}

// HeapCommitted implements runtime.Runtime: mapped arenas.
func (h *Heap) HeapCommitted() int64 {
	h.AssertLive()
	var n int64
	for _, a := range h.arenas {
		if a.mapped {
			n += ArenaSize
		}
	}
	return n
}

// LiveBytes implements runtime.Runtime.
func (h *Heap) LiveBytes() int64 {
	h.AssertLive()
	var n int64
	for _, a := range h.arenas {
		n += h.Pool.LiveBytes(a.objects)
	}
	return n
}

// MappedArenas reports how many arenas are currently held.
func (h *Heap) MappedArenas() int {
	n := 0
	for _, a := range h.arenas {
		if a.mapped {
			n++
		}
	}
	return n
}

// appendHoleRuns appends the free intervals of a, region-relative, to
// runs (adjacent arenas' holes merge at the page-aligned arena
// boundaries).
func (h *Heap) appendHoleRuns(a *arena, runs []osmem.Run) []osmem.Run {
	base := int64(a.index) * ArenaSize
	cursor := int64(0)
	for _, r := range a.objects {
		o := h.Pool.At(r)
		if o.Offset > cursor {
			runs = osmem.AppendRun(runs, base+cursor, o.Offset-cursor)
		}
		cursor = o.Offset + o.Size
	}
	if cursor < ArenaSize {
		runs = osmem.AppendRun(runs, base+cursor, ArenaSize-cursor)
	}
	return runs
}

// Allocate implements runtime.Runtime.
func (h *Heap) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	if size <= 0 {
		panic("pyarena: non-positive allocation")
	}
	h.AssertLive()
	if size > ArenaSize {
		return mm.NoRef, fmt.Errorf("pyarena: %d exceeds the arena size: %w", size, runtime.ErrOutOfMemory)
	}
	h.sinceGC++
	if h.sinceGC >= gcThreshold {
		h.CollectFull(false)
		h.sinceGC = 0
	}
	o := h.Pool.New(size, opts.Weak)
	for _, a := range h.arenas {
		if a.mapped && h.place(a, o) {
			return o, nil
		}
	}
	a := h.grow()
	if a == nil {
		// Last resort: collect and retry before failing.
		h.CollectFull(false)
		for _, a := range h.arenas {
			if a.mapped && h.place(a, o) {
				return o, nil
			}
		}
		if a = h.grow(); a == nil {
			return h.Fail(o, runtime.ErrOutOfMemory)
		}
	}
	if !h.place(a, o) {
		return h.Fail(o, runtime.ErrOutOfMemory)
	}
	return o, nil
}

// place first-fits o into the arena's free list, touching its pages.
// The hole walk runs over the sorted object list in place — the same
// first-fit order the old holes() slice yielded, without building it —
// and the insertion shifts the tail instead of re-sorting.
func (h *Heap) place(a *arena, r mm.Ref) bool {
	o := h.Pool.At(r)
	cursor := int64(0)
	idx := -1
	for i, qr := range a.objects {
		q := h.Pool.At(qr)
		if q.Offset-cursor >= o.Size {
			idx = i
			break
		}
		cursor = q.Offset + q.Size
	}
	if idx < 0 {
		if ArenaSize-cursor < o.Size {
			return false
		}
		idx = len(a.objects)
	}
	o.Offset = cursor
	h.Region.TouchBytes(int64(a.index)*ArenaSize+o.Offset, o.Size, true)
	a.objects = append(a.objects, 0)
	copy(a.objects[idx+1:], a.objects[idx:])
	a.objects[idx] = r
	return true
}

// grow maps one more arena, reusing an unmapped slot first.
func (h *Heap) grow() *arena {
	for _, a := range h.arenas {
		if !a.mapped {
			a.mapped = true
			return a
		}
	}
	idx := len(h.arenas)
	if int64(idx+1)*ArenaSize > h.Region.Bytes() {
		return nil
	}
	a := &arena{index: idx, mapped: true, objects: h.Pool.List()}
	h.arenas = append(h.arenas, a)
	return a
}

// CollectFull implements runtime.Runtime: the stock collector frees
// dead blocks into the free lists, releasing only arenas that become
// entirely empty.
func (h *Heap) CollectFull(aggressive bool) {
	h.AssertLive()
	h.GC.FullGCs++
	var traced, collected int64
	runs := h.scratch[:0]
	for _, a := range h.arenas {
		if !a.mapped {
			continue
		}
		live := a.objects[:0]
		for _, r := range a.objects {
			o := h.Pool.At(r)
			if o.Collectible(aggressive) {
				o.Dead = true
				collected += o.Size
				h.Pool.Free(r)
				continue
			}
			traced += o.Size
			live = append(live, r)
		}
		a.objects = live
		if len(a.objects) == 0 {
			// Adjacent empty arenas coalesce into one release run.
			runs = osmem.AppendRun(runs, int64(a.index)*ArenaSize, ArenaSize)
			a.mapped = false
		}
	}
	h.Region.ReleaseRuns(runs)
	h.scratch = runs[:0]
	h.GC.CollectedBytes += collected
	h.NotePause(true, mm.GCCycle(traced, 0, collected), collected)
}

// Reclaim implements runtime.Runtime: collect, then use the free-list
// knowledge to release the free pages inside partially occupied
// arenas — the §7 recipe.
func (h *Heap) Reclaim(aggressive bool) runtime.ReclaimReport {
	h.AssertLive()
	before := h.ResidentBytes()
	h.CollectFull(aggressive)
	runs := h.scratch[:0]
	for _, a := range h.arenas {
		if !a.mapped {
			continue
		}
		runs = h.appendHoleRuns(a, runs)
	}
	h.Region.ReleaseRuns(runs)
	h.scratch = runs[:0]
	return h.FinishReclaim(before, h.LiveBytes())
}

func (h *Heap) String() string {
	return fmt.Sprintf("pyarena{arenas=%d live=%dKB resident=%dKB}",
		h.MappedArenas(), h.LiveBytes()/1024, h.ResidentBytes()/1024)
}
