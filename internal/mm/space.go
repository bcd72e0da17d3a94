package mm

import (
	"fmt"

	"desiccant/internal/osmem"
)

// BumpSpace is a contiguous allocation space carved out of an OS
// region: a base offset, a capacity, and a bump pointer. HotSpot's
// eden/from/to/old spaces are BumpSpaces; V8's young semispaces use
// them inside chunks.
//
// The space touches OS pages as the bump pointer advances, which is
// what makes "allocated once, free now, still resident" — frozen
// garbage — visible to the accounting layer.
type BumpSpace struct {
	Name     string
	pool     *ObjectPool
	region   *osmem.Region
	base     int64 // byte offset of the space within the region
	capacity int64
	top      int64
	objects  []Ref

	// Touch-skip watermark: while epoch matches the region's clear
	// epoch, space-relative bytes [lo, hi) are known resident and
	// dirty, so a write touch inside them is a no-op the allocator can
	// skip. Valid only for anonymous regions (anon pages are always
	// dirty once resident); any release/swap/protect on the region
	// bumps the clear epoch and voids the claim. Mutator allocation
	// into recycled eden pages — the hottest path in every workload —
	// hits this skip almost every time.
	lo, hi int64
	epoch  uint64
}

// NewBumpSpace creates a space over region bytes [base, base+capacity)
// for objects of pool, taking its object list from the pool.
func NewBumpSpace(name string, pool *ObjectPool, region *osmem.Region, base, capacity int64) *BumpSpace {
	s := &BumpSpace{Name: name, pool: pool, region: region, objects: pool.List()}
	s.Recarve(base, capacity)
	return s
}

// GiveBack hands the space's object list to its pool for the next
// heap; the space's heap is being released and must not use it again.
func (s *BumpSpace) GiveBack() {
	s.pool.PutList(s.objects)
	s.objects = nil
}

// Region returns the OS region backing the space.
func (s *BumpSpace) Region() *osmem.Region { return s.region }

// Base returns the space's byte offset within its region.
func (s *BumpSpace) Base() int64 { return s.base }

// Capacity returns the space's size in bytes.
func (s *BumpSpace) Capacity() int64 { return s.capacity }

// Used returns the bytes below the bump pointer.
func (s *BumpSpace) Used() int64 { return s.top }

// Free returns the bytes above the bump pointer.
func (s *BumpSpace) Free() int64 { return s.capacity - s.top }

// Objects returns the objects currently resident in the space. The
// returned slice is the space's own; callers must not retain it across
// mutations.
func (s *BumpSpace) Objects() []Ref { return s.objects }

// LiveBytes returns the bytes held by non-dead objects in the space.
func (s *BumpSpace) LiveBytes() int64 { return s.pool.LiveBytes(s.objects) }

// TryAllocate bump-allocates r, all its clusters, into the space,
// touching the underlying pages in one call: for a run that changes
// page state exactly as its clusters placed one by one would (the
// CopyBatch argument). Returns false (leaving the space unchanged) if
// r does not fit.
func (s *BumpSpace) TryAllocate(r Ref) bool {
	o := s.pool.At(r)
	n := o.Bytes()
	if n > s.capacity-s.top {
		return false
	}
	o.Offset = s.base + s.top
	s.bump(n)
	s.objects = append(s.objects, r)
	return true
}

// bump advances the bump pointer by n bytes and touches the pages
// they cover. The touch is skipped when the bytes land entirely
// inside the known resident+dirty window — it would change no page
// state. The window is only ever non-empty for anonymous regions, and
// any operation that could falsify it bumps the region's clear epoch.
func (s *BumpSpace) bump(n int64) {
	end := s.top + n
	if s.epoch != s.region.ClearEpoch() || s.top < s.lo || end > s.hi {
		s.region.TouchBytes(s.base+s.top, n, true)
		s.noteTouched(s.top, end)
	}
	s.top = end
}

// noteTouched records that space-relative bytes [from, to) were just
// touched with write intent, growing the resident+dirty window. The
// touch's page coverage extends outward past [from, to); when it no
// longer connects to the previous window (stale epoch or a gap), the
// coverage becomes the whole claim.
func (s *BumpSpace) noteTouched(from, to int64) {
	if s.region.Kind != osmem.Anon {
		return
	}
	lo := (s.base+from)>>osmem.PageShift<<osmem.PageShift - s.base
	if lo < 0 {
		lo = 0
	}
	hi := (s.base+to+osmem.PageSize-1)>>osmem.PageShift<<osmem.PageShift - s.base
	if ep := s.region.ClearEpoch(); ep != s.epoch || lo > s.hi || hi < s.lo {
		s.epoch = ep
		s.lo, s.hi = lo, hi
		return
	}
	if lo < s.lo {
		s.lo = lo
	}
	if hi > s.hi {
		s.hi = hi
	}
}

// Reset empties the space: the bump pointer returns to zero and the
// object list clears. Pages stay resident — this
// is exactly what eden does after a young GC, and it is the mechanism
// behind frozen garbage: free memory that the OS still accounts
// against the process.
func (s *BumpSpace) Reset() {
	s.top = 0
	s.objects = s.objects[:0]
}

// Recarve moves an empty space to the window [base, base+capacity) of
// its region, keeping its object list's capacity. The touch-skip
// watermark is cleared, so the space is indistinguishable from a fresh
// NewBumpSpace over the window.
func (s *BumpSpace) Recarve(base, capacity int64) {
	if s.top != 0 {
		panic(fmt.Sprintf("mm: Recarve of non-empty space %q", s.Name))
	}
	if base < 0 || capacity < 0 || base+capacity > s.region.Bytes() {
		panic(fmt.Sprintf("mm: space %q [%d,%d) outside region of %d bytes",
			s.Name, base, base+capacity, s.region.Bytes()))
	}
	s.base, s.capacity = base, capacity
	s.objects = s.objects[:0]
	s.lo, s.hi, s.epoch = 0, 0, 0
}

// Relocate re-installs objs (already filtered by the collector, each
// run's dead prefix dropped) as the space's contents, recomputing
// offsets as a compacted prefix and touching the destination pages —
// one bulk touch over the compacted span rather than one per object.
// Returns false if they do not fit.
func (s *BumpSpace) Relocate(objs []Ref) bool {
	var need int64
	for _, r := range objs {
		need += s.pool.At(r).Bytes()
	}
	if need > s.capacity {
		return false
	}
	s.Reset()
	b := s.BeginCopy()
	for _, r := range objs {
		if !b.TryAllocate(r) {
			panic("mm: Relocate overflow after size check")
		}
	}
	b.Flush()
	return true
}

// CopyBatch defers page touching across a copying-GC loop. Objects
// bump-allocate into the space without touching OS pages; Flush then
// touches the contiguous span they occupy in one call. Because the
// objects are packed back to back, the union of their outward-rounded
// per-object touches is exactly the outward-rounded span, so the
// batch is observation-identical to per-object TryAllocate — it just
// trades a page walk per object for one per flush.
//
// A batch must be flushed before anything else inspects or releases
// the space's pages (e.g. before a full GC triggered mid-copy).
type CopyBatch struct {
	s     *BumpSpace
	start int64 // top when the batch began (or was last flushed)
}

// BeginCopy starts a deferred-touch allocation batch at the current
// bump pointer.
func (s *BumpSpace) BeginCopy() CopyBatch { return CopyBatch{s: s, start: s.top} }

// TryAllocate bump-allocates r without touching pages. Returns false
// (leaving the space unchanged) if r does not fit.
func (b *CopyBatch) TryAllocate(r Ref) bool {
	s := b.s
	o := s.pool.At(r)
	n := o.Bytes()
	if n > s.capacity-s.top {
		return false
	}
	o.Offset = s.base + s.top
	s.top += n
	s.objects = append(s.objects, r)
	return true
}

// Flush touches the pages of every object allocated through the batch
// since BeginCopy (or the previous Flush) and rearms the batch.
func (b *CopyBatch) Flush() {
	s := b.s
	if s.top > b.start {
		// Same watermark skip as TryAllocate: copying into recycled
		// pages (to-space after a previous cycle) changes no state.
		if s.epoch != s.region.ClearEpoch() || b.start < s.lo || s.top > s.hi {
			s.region.TouchBytes(s.base+b.start, s.top-b.start, true)
			s.noteTouched(b.start, s.top)
		}
	}
	b.start = s.top
}

// SetCapacity grows or shrinks the space's capacity in place (the
// base is fixed). Shrinking below the bump pointer panics. Shrinking
// releases nothing by itself; the owning heap's uncommit logic does.
func (s *BumpSpace) SetCapacity(capacity int64) {
	if capacity < s.top {
		panic(fmt.Sprintf("mm: shrink of %q below used bytes (%d < %d)", s.Name, capacity, s.top))
	}
	if s.base+capacity > s.region.Bytes() {
		panic(fmt.Sprintf("mm: capacity %d exceeds region for %q", capacity, s.Name))
	}
	s.capacity = capacity
}

// ResidentBytes reports the resident OS pages overlapping the space.
func (s *BumpSpace) ResidentBytes() int64 {
	firstPage := s.base >> osmem.PageShift
	endPage := (s.base + s.capacity + osmem.PageSize - 1) >> osmem.PageShift
	if endPage > s.region.Pages() {
		endPage = s.region.Pages()
	}
	return s.region.ResidentBytesIn(firstPage, endPage-firstPage)
}

func (s *BumpSpace) String() string {
	return fmt.Sprintf("%s{used=%dKB cap=%dKB live=%dKB}",
		s.Name, s.top/1024, s.capacity/1024, s.LiveBytes()/1024)
}
