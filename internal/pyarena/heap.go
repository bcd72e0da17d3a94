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
	"desiccant/internal/sim"
)

// RuntimeName is the name this package registers with the runtime
// registry.
const RuntimeName = "pyarena"

func init() {
	runtime.Register(RuntimeName, func(cfg runtime.Config) runtime.Runtime {
		h := New(DefaultConfig(cfg.MemoryBudget), cfg.AddressSpace, cfg.Cost)
		h.obs = cfg.Observer
		return h
	})
}

// ArenaSize is CPython's arena granularity.
const ArenaSize = 256 << 10

// Config parameterizes the heap.
type Config struct {
	// HeapLimit bounds the arena pool.
	HeapLimit int64
	// GCThreshold is the allocation count that triggers the cyclic
	// collector (CPython's generation-0 threshold, flattened).
	GCThreshold int
}

// DefaultConfig derives a configuration from an instance budget.
func DefaultConfig(memoryBudget int64) Config {
	return Config{HeapLimit: memoryBudget * 85 / 100, GCThreshold: 700}
}

// Heap is a simulated CPython object heap.
type Heap struct {
	cfg  Config
	cost mm.GCCostModel
	// pool is nil once the heap is released.
	pool   *mm.ObjectPool
	region *osmem.Region
	arenas []*arena

	sinceGC int
	gcCost  sim.Duration
	stats   runtime.GCStats
	// obs, when non-nil, receives pause and release notifications.
	obs runtime.GCObserver

	// scratch is the reusable run buffer the sweep and reclaim paths
	// coalesce free ranges into before releasing them in one call.
	scratch []osmem.Run
}

type arena struct {
	index   int
	mapped  bool
	objects []*mm.Object // sorted by ascending arena-relative offset
}

var _ runtime.Runtime = (*Heap)(nil)

// New reserves the arena pool inside as.
func New(cfg Config, as *osmem.AddressSpace, cost mm.GCCostModel) *Heap {
	if cfg.HeapLimit < ArenaSize {
		panic("pyarena: heap smaller than one arena")
	}
	h := &Heap{cfg: cfg, cost: cost, pool: mm.NewPool()}
	h.region = as.MmapAnon("py-arenas", cfg.HeapLimit)
	return h
}

// Name implements runtime.Runtime.
func (h *Heap) Name() string { return RuntimeName }

// Language implements runtime.Runtime.
func (h *Heap) Language() runtime.Language { return runtime.Language("python") }

// Stats implements runtime.Runtime.
func (h *Heap) Stats() runtime.GCStats {
	h.live()
	return h.stats
}

// DrainGCCost implements runtime.Runtime.
func (h *Heap) DrainGCCost() sim.Duration {
	h.live()
	c := h.gcCost
	h.gcCost = 0
	return c
}

// ConsumeDeoptPenalty implements runtime.Runtime (CPython has no JIT
// in this model).
func (h *Heap) ConsumeDeoptPenalty() float64 {
	h.live()
	return 0
}

// Release implements runtime.Runtime.
func (h *Heap) Release() {
	h.live()
	for _, a := range h.arenas {
		h.pool.FreeAll(a.objects)
	}
	h.pool.Release()
	h.pool = nil
}

// live panics once the heap has been released.
func (h *Heap) live() {
	if h.pool == nil {
		panic("pyarena: use of released heap")
	}
}

// HeapRange implements runtime.Runtime.
func (h *Heap) HeapRange() (int64, int64) {
	h.live()
	return h.region.VA, h.region.Bytes()
}

// HeapCommitted implements runtime.Runtime: mapped arenas.
func (h *Heap) HeapCommitted() int64 {
	h.live()
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
	h.live()
	var n int64
	for _, a := range h.arenas {
		n += mm.LiveBytes(a.objects)
	}
	return n
}

// ResidentBytes exposes the physical footprint.
func (h *Heap) ResidentBytes() int64 { return h.region.ResidentPages() * osmem.PageSize }

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

// appendHoleRuns appends the arena's free intervals, region-relative,
// to runs (adjacent arenas' holes merge at the page-aligned arena
// boundaries).
func (a *arena) appendHoleRuns(runs []osmem.Run) []osmem.Run {
	base := int64(a.index) * ArenaSize
	cursor := int64(0)
	for _, o := range a.objects {
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
func (h *Heap) Allocate(size int64, opts runtime.AllocOptions) (*mm.Object, error) {
	if size <= 0 {
		panic("pyarena: non-positive allocation")
	}
	h.live()
	if size > ArenaSize {
		return nil, fmt.Errorf("pyarena: %d exceeds the arena size: %w", size, runtime.ErrOutOfMemory)
	}
	h.sinceGC++
	if h.sinceGC >= h.cfg.GCThreshold {
		h.CollectFull(false)
		h.sinceGC = 0
	}
	o := h.pool.New(size, opts.Weak)
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
			return nil, runtime.ErrOutOfMemory
		}
	}
	if !h.place(a, o) {
		return nil, runtime.ErrOutOfMemory
	}
	return o, nil
}

// place first-fits o into the arena's free list, touching its pages.
// The hole walk runs over the sorted object list in place — the same
// first-fit order the old holes() slice yielded, without building it —
// and the insertion shifts the tail instead of re-sorting.
func (h *Heap) place(a *arena, o *mm.Object) bool {
	cursor := int64(0)
	idx := -1
	for i, q := range a.objects {
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
	h.region.TouchBytes(int64(a.index)*ArenaSize+o.Offset, o.Size, true)
	a.objects = append(a.objects, nil)
	copy(a.objects[idx+1:], a.objects[idx:])
	a.objects[idx] = o
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
	if int64(idx+1)*ArenaSize > h.region.Bytes() {
		return nil
	}
	a := &arena{index: idx, mapped: true}
	h.arenas = append(h.arenas, a)
	return a
}

// CollectFull implements runtime.Runtime: the stock collector frees
// dead blocks into the free lists, releasing only arenas that become
// entirely empty.
func (h *Heap) CollectFull(aggressive bool) {
	h.live()
	h.stats.FullGCs++
	var traced, collected int64
	runs := h.scratch[:0]
	for _, a := range h.arenas {
		if !a.mapped {
			continue
		}
		live := a.objects[:0]
		for _, o := range a.objects {
			if o.Collectible(aggressive) {
				o.Dead = true
				collected += o.Size
				h.pool.Free(o)
				continue
			}
			traced += o.Size
			live = append(live, o)
		}
		a.objects = live
		if len(a.objects) == 0 {
			// Adjacent empty arenas coalesce into one release run.
			runs = osmem.AppendRun(runs, int64(a.index)*ArenaSize, ArenaSize)
			a.mapped = false
		}
	}
	h.region.ReleaseRuns(runs)
	h.scratch = runs[:0]
	h.stats.CollectedBytes += collected
	pause := h.cost.Cycle(traced, 0, collected)
	h.gcCost += pause
	if h.obs != nil {
		h.obs.GCPause(true, pause, collected)
	}
}

// Reclaim implements runtime.Runtime: collect, then use the free-list
// knowledge to release the free pages inside partially occupied
// arenas — the §7 recipe.
func (h *Heap) Reclaim(aggressive bool) runtime.ReclaimReport {
	h.live()
	before := h.ResidentBytes()
	h.CollectFull(aggressive)
	runs := h.scratch[:0]
	for _, a := range h.arenas {
		if !a.mapped {
			continue
		}
		runs = a.appendHoleRuns(runs)
	}
	h.region.ReleaseRuns(runs)
	h.scratch = runs[:0]
	after := h.ResidentBytes()
	if h.obs != nil && before > after {
		h.obs.PagesReleased(before - after)
	}
	return runtime.ReclaimReport{
		LiveBytes:     h.LiveBytes(),
		ReleasedBytes: before - after,
		CPUCost:       h.DrainGCCost(),
	}
}

func (h *Heap) String() string {
	return fmt.Sprintf("pyarena{arenas=%d live=%dKB resident=%dKB}",
		h.MappedArenas(), h.LiveBytes()/1024, h.ResidentBytes()/1024)
}
