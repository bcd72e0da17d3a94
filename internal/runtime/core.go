package runtime

import (
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

// releaseCostPerMB is the CPU a reclamation spends per MiB it returns
// to the OS: a few madvise/munmap syscalls.
const releaseCostPerMB = sim.Microsecond

// HeapCore is the bookkeeping every heap model shares: the object
// pool, the reserved heap region, the collection counters, the GC cost
// not yet drained and the observer. A model embeds it, which supplies
// Objects, Stats, DrainGCCost, HeapRange, ResidentBytes, a zero
// ConsumeDeoptPenalty and a zero Headroom, and keeps only its own
// spaces and policies.
type HeapCore struct {
	// Pool owns the heap's objects; every list of the heap holds Refs
	// into it. It is nil once the heap is released.
	Pool *mm.ObjectPool
	// Region is the heap's reserved virtual range.
	Region *osmem.Region
	// GC counts collection activity over the heap's lifetime.
	GC GCStats

	name   string // prefixes the use-after-release panic
	gcCost sim.Duration
	obs    GCObserver
}

// NewHeapCore reserves a heap of the given size, named regionName,
// in cfg's address space and wires cfg's observer. name identifies
// the model in panics.
func NewHeapCore(name, regionName string, bytes int64, cfg Config) HeapCore {
	return HeapCore{
		Pool:   mm.NewPool(),
		Region: cfg.AddressSpace.MmapAnon(regionName, bytes),
		name:   name,
		obs:    cfg.Observer,
	}
}

// AssertLive panics once the heap has been released.
func (c *HeapCore) AssertLive() {
	if c.Pool == nil {
		panic(c.name + ": use of released heap")
	}
}

// ReleasePool resets the pool and hands it back to the process-wide
// store; the model has given its lists to the pool first. Any later
// use of the heap panics.
func (c *HeapCore) ReleasePool() {
	c.Pool.Release()
	c.Pool = nil
}

// Objects implements Runtime.
func (c *HeapCore) Objects() *mm.ObjectPool {
	c.AssertLive()
	return c.Pool
}

// Fail drops r, an object Allocate could not place on any list, and
// returns Allocate's failure result for err.
func (c *HeapCore) Fail(r mm.Ref, err error) (mm.Ref, error) {
	c.Pool.Free(r)
	return mm.NoRef, err
}

// HeapRange implements Runtime.
func (c *HeapCore) HeapRange() (int64, int64) {
	c.AssertLive()
	return c.Region.VA, c.Region.Bytes()
}

// ResidentBytes reports the heap's physical footprint, as the
// platform would observe via pmap over HeapRange.
func (c *HeapCore) ResidentBytes() int64 { return c.Region.ResidentPages() * osmem.PageSize }

// Stats returns lifetime collection counters.
func (c *HeapCore) Stats() GCStats {
	c.AssertLive()
	return c.GC
}

// DrainGCCost implements Runtime.
func (c *HeapCore) DrainGCCost() sim.Duration {
	c.AssertLive()
	d := c.gcCost
	c.gcCost = 0
	return d
}

// Headroom implements Runtime for models without a bulk path for
// cluster runs: it promises nothing, so every cluster stays an object
// of its own.
func (c *HeapCore) Headroom(maxSize int64) int64 { return 0 }

// AllocateRun implements Runtime for models that promise no headroom:
// no run lies within it, so any call is a caller bug.
func (c *HeapCore) AllocateRun(size int64, n int32) mm.Ref {
	panic(c.name + ": AllocateRun without headroom")
}

// ConsumeDeoptPenalty implements Runtime for models without a JIT
// that aggressive collections deoptimize: the penalty is always 0.
func (c *HeapCore) ConsumeDeoptPenalty() float64 {
	c.AssertLive()
	return 0
}

// NotePause accumulates one pause's CPU cost and forwards it to the
// observer when one is attached.
func (c *HeapCore) NotePause(full bool, pause sim.Duration, collected int64) {
	c.gcCost += pause
	if c.obs != nil {
		c.obs.GCPause(full, pause, collected)
	}
}

// NoteResize forwards a committed-heap change to the observer when one
// is attached and the size moved.
func (c *HeapCore) NoteResize(committedBefore, committedAfter int64) {
	if c.obs != nil && committedAfter != committedBefore {
		c.obs.HeapResized(committedBefore, committedAfter)
	}
}

// FinishReclaim is the epilogue every Reclaim shares. before is the
// resident footprint the reclamation started from and live the live
// bytes it left. The bytes released since before go to the observer,
// and the report's CPU cost is the drained GC cost plus the release
// syscalls, charged at releaseCostPerMB. The cost is billed to the
// platform's idle CPUs, not to the function, which is why it leaves
// the per-invocation accumulator here.
func (c *HeapCore) FinishReclaim(before, live int64) ReclaimReport {
	released := max(before-c.ResidentBytes(), 0)
	if c.obs != nil && released > 0 {
		c.obs.PagesReleased(released)
	}
	cost := c.DrainGCCost() + sim.Duration(released>>20)*releaseCostPerMB
	return ReclaimReport{LiveBytes: live, ReleasedBytes: released, CPUCost: cost}
}
