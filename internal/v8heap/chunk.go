// Package v8heap simulates the V8 (Node.js) heap as §3.2.2 describes
// it: all spaces are built from discontinuous 256 KiB chunks whose
// first 4 KiB page holds unreleasable self-describing metadata; the
// young generation is a pair of semispaces whose size doubles whenever
// the live bytes accumulated since the last expansion exceed the
// current size and only shrinks when the allocation rate is low; the
// old generation is mark-swept (not compacted), releasing whole free
// chunks after GC but leaving fragmented free memory inside partially
// occupied ones.
package v8heap

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
)

// ChunkSize is V8's memory chunk granularity.
const ChunkSize = 256 << 10

// ChunkHeaderSize is the self-described metadata page at the start of
// every chunk, which cannot be released while the chunk exists.
const ChunkHeaderSize = 4 << 10

// ChunkUsable is the payload capacity of one chunk.
const ChunkUsable = ChunkSize - ChunkHeaderSize

// arena hands out chunks from one reserved OS region, recycling freed
// chunk slots and chunk structs.
type arena struct {
	pool   *mm.ObjectPool
	region *osmem.Region
	total  int // total chunk slots in the region
	next   int // next never-used slot
	free   []int
	inUse  int
	// spare holds released chunk structs for alloc to reuse with their
	// object lists' capacity, so a semispace that shrinks and grows
	// back takes no Go allocation.
	spare []*chunk
	// scratch is the reusable run buffer the sweep paths coalesce
	// free intervals into before releasing them in one call.
	scratch []osmem.Run
}

func newArena(pool *mm.ObjectPool, region *osmem.Region) *arena {
	return &arena{pool: pool, region: region, total: int(region.Bytes() / ChunkSize)}
}

// chunkObjects caps the object list alloc gives a new chunk struct.
const chunkObjects = 32

// alloc returns a fresh chunk, touching its header page, or nil when
// the reservation is exhausted. objSize, when positive, is the size of
// the object the chunk is about to take: a chunk struct without an
// object list takes one from the pool with room for twice as many
// objects of that size as the chunk holds, up to chunkObjects, or
// makes one when the pool's is shorter. No chunk in the
// experiments holds more than 20 objects, and few hold more than twice
// as many as their first object's size fits, so lists rarely grow by
// append: that would allocate whenever a chunk held a record number of
// objects, long after the heap stopped growing. The cap keeps a small
// first object from sizing a list for thousands.
func (a *arena) alloc(owner string, objSize int64) *chunk {
	var slot int
	switch {
	case len(a.free) > 0:
		slot = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
	case a.next < a.total:
		slot = a.next
		a.next++
	default:
		return nil
	}
	a.inUse++
	var c *chunk
	if n := len(a.spare); n > 0 {
		c = a.spare[n-1]
		a.spare = a.spare[:n-1]
		*c = chunk{arena: a, slot: slot, owner: owner, objects: c.objects[:0]}
	} else {
		c = &chunk{arena: a, slot: slot, owner: owner}
	}
	if cap(c.objects) == 0 && objSize > 0 {
		want := min(2*ChunkUsable/objSize+1, chunkObjects)
		if c.objects = a.pool.List(); int64(cap(c.objects)) < want {
			c.objects = make([]mm.Ref, 0, want)
		}
	}
	// The metadata page is written at chunk creation.
	c.touch(0, ChunkHeaderSize)
	return c
}

// available is the number of chunks alloc can still hand out.
func (a *arena) available() int64 { return int64(len(a.free) + a.total - a.next) }

// release returns the chunk to the OS in full — data pages and header.
// The chunk must hold no objects; its struct goes to the spare list,
// so the caller must drop every pointer to it.
func (a *arena) release(c *chunk) {
	if c.dead {
		panic("v8heap: double release of chunk")
	}
	c.dead = true
	a.inUse--
	first := c.base() >> osmem.PageShift
	a.region.Release(first, ChunkSize>>osmem.PageShift)
	a.free = append(a.free, c.slot)
	a.spare = append(a.spare, c)
}

// chunk is one 256 KiB unit. Within the payload, objects live at fixed
// offsets (the old space does not compact), so free memory is a set of
// gaps between objects.
type chunk struct {
	arena *arena
	slot  int
	owner string
	dead  bool
	// objects sorted by ascending Offset; offsets are chunk-relative
	// and start at ChunkHeaderSize.
	objects []mm.Ref

	// Touch-skip watermark, as in mm.BumpSpace: while epoch matches
	// the region's clear epoch, chunk-relative bytes [lo, hi) are known
	// resident and dirty (the arena region is anonymous), so a write
	// touch inside them is a no-op the chunk can skip. Any release,
	// swap-out or protection change on the region bumps the clear epoch
	// and voids the claim.
	lo, hi int64
	epoch  uint64

	// noFit, when positive, is a cluster size for which the chunk has
	// no gap: a place walk found none. Placing only shrinks gaps, so
	// it stays true, and every larger size fits no gap either, until a
	// sweep frees space and clears it.
	noFit int64
}

// touch faults in chunk-relative bytes [off, off+n) with write intent,
// skipping the region call when the span sits inside the chunk's known
// resident+dirty window. Chunk bases are ChunkSize-aligned, so
// chunk-relative page rounding matches the region's.
func (c *chunk) touch(off, n int64) {
	r := c.arena.region
	end := off + n
	if c.epoch == r.ClearEpoch() && c.lo <= off && end <= c.hi {
		return
	}
	r.TouchBytes(c.base()+off, n, true)
	lo := off >> osmem.PageShift << osmem.PageShift
	hi := (end + osmem.PageSize - 1) >> osmem.PageShift << osmem.PageShift
	if ep := r.ClearEpoch(); ep != c.epoch || lo > c.hi || hi < c.lo {
		// Stale or disjoint from the previous window: this touch's
		// page span is the whole claim.
		c.epoch = ep
		c.lo, c.hi = lo, hi
		return
	}
	if lo < c.lo {
		c.lo = lo
	}
	if hi > c.hi {
		c.hi = hi
	}
}

func (c *chunk) base() int64 { return int64(c.slot) * ChunkSize }

// usedBytes sums the extents of the chunk's objects.
func (c *chunk) usedBytes() int64 {
	pool := c.arena.pool
	var n int64
	for _, r := range c.objects {
		n += pool.At(r).Bytes()
	}
	return n
}

// place first-fits run r into the chunk's gaps, touching their pages,
// and returns the clusters it could not place: NoRef when all fit, r
// itself when none did. Clusters placed one by one would each take the
// first gap that fits one, which is the rest of the gap the previous
// one took until fewer than one cluster's bytes are left there, so the
// run fills gap after gap: as many clusters as a gap holds go in as one
// piece at its start, and the rest move on to the next gap that fits
// one. The gap walk runs over the sorted object list in place, and each
// insertion shifts the tail instead of re-sorting. A walk that leaves
// clusters over records their size in noFit, and a later run at least
// that large skips the walk.
func (c *chunk) place(r mm.Ref) mm.Ref {
	pool := c.arena.pool
	size := pool.At(r).Size
	if c.noFit > 0 && size >= c.noFit {
		return r
	}
	cursor := int64(ChunkHeaderSize)
	for i := 0; ; i++ {
		end := int64(ChunkSize)
		var q *mm.Object
		if i < len(c.objects) {
			q = pool.At(c.objects[i])
			end = q.Offset
		}
		if end-cursor >= size {
			rest := pool.Split(r, int32((end-cursor)/size))
			o := pool.At(r)
			o.Offset = cursor
			c.touch(cursor, o.Bytes())
			c.objects = append(c.objects, 0)
			copy(c.objects[i+1:], c.objects[i:])
			c.objects[i] = r
			if rest == mm.NoRef {
				return mm.NoRef
			}
			r = rest
			i++ // the gap's bounding object moved up by one
			if i < len(c.objects) {
				q = pool.At(c.objects[i]) // Split may have moved the slab
			}
		}
		if i >= len(c.objects) {
			c.noFit = size
			return r
		}
		cursor = q.Offset + q.Bytes()
	}
}

// sweep removes collectible objects, freeing them in the pool, and
// drops the dead prefix of every run it keeps; it returns the bytes
// reclaimed. Object positions are preserved (mark-sweep, no
// compaction), so the reclaimed space may be fragmented: a run's
// dropped prefix is the gap its dead clusters would have left.
func (c *chunk) sweep(aggressive bool) (collected int64, weakCollected int64) {
	pool := c.arena.pool
	live := c.objects[:0]
	for _, r := range c.objects {
		o := pool.At(r)
		if o.Collectible(aggressive) {
			if o.Weak && !o.Dead {
				weakCollected += o.Bytes()
			}
			o.Dead = true
			collected += o.Bytes()
			pool.Free(r)
			continue
		}
		collected += o.DropDead()
		live = append(live, r)
	}
	c.objects = live
	c.noFit = 0
	return collected, weakCollected
}

// appendFreeRuns appends the chunk's free intervals (region-relative,
// header page excluded) to runs for a batched release. The inward
// page rounding happens later in ReleaseRuns, so partial pages —
// fragmentation from the mark-sweep algorithm — stay resident, which
// is the residual gap between Desiccant and the ideal baseline on
// JavaScript functions.
func (c *chunk) appendFreeRuns(runs []osmem.Run) []osmem.Run {
	pool := c.arena.pool
	base := c.base()
	cursor := int64(ChunkHeaderSize)
	for _, r := range c.objects {
		o := pool.At(r)
		if o.Offset > cursor {
			runs = osmem.AppendRun(runs, base+cursor, o.Offset-cursor)
		}
		cursor = o.Offset + o.Bytes()
	}
	if cursor < ChunkSize {
		runs = osmem.AppendRun(runs, base+cursor, ChunkSize-cursor)
	}
	return runs
}

func (c *chunk) String() string {
	return fmt.Sprintf("chunk{%s#%d used=%dKB objs=%d}", c.owner, c.slot, c.usedBytes()/1024, len(c.objects))
}
