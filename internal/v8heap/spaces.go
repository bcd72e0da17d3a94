package v8heap

import (
	"fmt"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
)

// semispace is one half of the young generation: bump allocation over
// a list of chunks, compacted by every scavenge.
type semispace struct {
	name     string
	a        *arena
	capacity int64 // bytes, a multiple of ChunkSize
	chunks   []*chunk
	// bump state: chunkIdx is the chunk being filled, top the next
	// free chunk-relative offset within it.
	chunkIdx int
	top      int64
}

func newSemispace(name string, a *arena, capacity int64) *semispace {
	return &semispace{name: name, a: a, capacity: capacity, top: ChunkHeaderSize}
}

// tryAllocate bump-allocates run r, growing the chunk list up to the
// capacity and touching each piece's pages as it lands, and returns the
// clusters it could not place: NoRef when all fit, r itself when none
// did. Objects wider than a chunk payload are the caller's problem
// (they belong in large-object space).
func (s *semispace) tryAllocate(r mm.Ref) mm.Ref {
	b := s.beginBatch()
	rest := b.tryAllocate(r)
	b.sync()
	return rest
}

// headroom is the bytes of objects of at most maxSize bytes each the
// space bumps before one does not fit. A chunk with f free bytes takes
// such objects until fewer than maxSize bytes are left, so at least
// f−maxSize+1 of them, whatever the mix of sizes; the bump then moves
// on and leaves behind a chunk whose share was 0. The chunks are the
// current one, the emptied ones after it, and the fresh ones the
// capacity allows and the arena can still supply. Chunks a force added
// past the capacity take no bump.
func (s *semispace) headroom(maxSize int64) int64 {
	share := func(free int64) int64 { return max(free-maxSize+1, 0) }
	limit := s.capacity / ChunkSize
	var n int64
	if reach := min(int64(len(s.chunks)), limit); int64(s.chunkIdx) < reach {
		n = share(ChunkSize-s.top) + (reach-int64(s.chunkIdx)-1)*share(ChunkUsable)
	}
	fresh := min(limit-int64(len(s.chunks)), s.a.available())
	return n + max(fresh, 0)*share(ChunkUsable)
}

// force places r like tryAllocate, adding chunks past the capacity
// when the space is full: the out-of-memory paths of the collectors
// keep every cluster they cannot place listed in the from space. A
// live run's dead prefix goes first, as a dead run of its own, so that
// a split never leaves the piece the workload names dead in full.
func (s *semispace) force(r mm.Ref) {
	pool := s.a.pool
	if o := pool.At(r); o.Killed > 0 && !o.Dead {
		size, killed := o.Size, o.Killed
		o.DropDead()
		d := pool.NewRun(size, killed)
		pool.At(d).Kill(killed)
		s.forceAll(d)
	}
	s.forceAll(r)
}

// forceAll places every cluster of r, a run without a dead prefix or
// dead in full, adding a chunk past the capacity whenever the space is
// full, as clusters forced one by one would.
func (s *semispace) forceAll(r mm.Ref) {
	fresh := false
	for {
		b := semiBatch{s: s, start: s.top, force: true}
		rest := b.tryAllocate(r)
		b.sync()
		switch {
		case rest == mm.NoRef:
			return
		case fresh && rest == r:
			panic("v8heap: fresh chunk cannot hold a young object")
		}
		c := s.a.alloc(s.name, s.a.pool.At(rest).Size)
		if c == nil {
			panic("v8heap: arena exhausted")
		}
		s.chunks = append(s.chunks, c)
		s.chunkIdx = len(s.chunks) - 1
		s.top = ChunkHeaderSize
		r, fresh = rest, true
	}
}

// semiBatch defers the data-page touches of a copying-GC loop over a
// semispace: objects bump-allocate without touching pages, and the
// pending contiguous span is flushed in one TouchBytes call whenever
// the bump pointer leaves a chunk (and finally via sync). Within one
// chunk the copied objects are packed back to back, so the union of
// their outward-rounded per-cluster touches is exactly the rounded
// span — the batch is observation-identical to touching each cluster
// as it lands. Chunk header touches still happen at chunk creation.
type semiBatch struct {
	s     *semispace
	start int64 // chunk-relative start of the pending span
	// force lets the bump fill the chunks past the capacity that
	// earlier forces added; only force places there.
	force bool
}

// beginBatch starts a deferred-touch batch at the current bump state.
func (s *semispace) beginBatch() semiBatch { return semiBatch{s: s, start: s.top} }

// sync touches the pending span. It must be called before the space's
// pages are inspected or released (end of the copy loop, or before a
// full GC fires mid-copy).
func (b *semiBatch) sync() {
	s := b.s
	if s.chunkIdx < len(s.chunks) && s.top > b.start {
		c := s.chunks[s.chunkIdx]
		c.touch(b.start, s.top-b.start)
	}
	b.start = s.top
}

// tryAllocate bumps run r as its clusters would land one after
// another, with the data-page touch deferred to the next chunk
// boundary or sync, and returns the clusters it could not place: NoRef
// when all fit, r itself when none did. The clusters that fit the
// current chunk go in as one piece; the rest move on to the next chunk
// as a new piece chained after it. A cluster that finds no chunk
// leaves the bump state as a failed single allocation does: past the
// last chunk within the capacity. So a space that a force left past
// its capacity takes no bump until a collection empties it: a heap
// that ran out of memory stays within its budget.
func (b *semiBatch) tryAllocate(r mm.Ref) mm.Ref {
	s := b.s
	pool := s.a.pool
	size := pool.At(r).Size
	if size > ChunkUsable {
		return r
	}
	for {
		// Past the capacity only a force bumps, and only through the
		// chunks earlier forces added; forceAll adds the next one.
		if int64(s.chunkIdx+1)*ChunkSize > s.capacity && (!b.force || s.chunkIdx == len(s.chunks)) {
			return r
		}
		if s.chunkIdx == len(s.chunks) {
			c := s.a.alloc(s.name, size)
			if c == nil {
				return r
			}
			s.chunks = append(s.chunks, c)
			s.top = ChunkHeaderSize
			b.start = ChunkHeaderSize
		}
		c := s.chunks[s.chunkIdx]
		if k := (ChunkSize - s.top) / size; k > 0 {
			rest := pool.Split(r, int32(k))
			o := pool.At(r)
			o.Offset = s.top
			c.objects = append(c.objects, r)
			s.top += o.Bytes()
			if rest == mm.NoRef {
				return mm.NoRef
			}
			r = rest
		}
		// Chunk full: flush the pending span before leaving it,
		// restarting the bump pointer (recycled chunks from a previous
		// cycle are empty).
		b.sync()
		s.chunkIdx++
		s.top = ChunkHeaderSize
		b.start = ChunkHeaderSize
	}
}

// takeAll empties the semispace, appending its objects to out, and
// returns the extended slice. Chunks (and their resident pages) are
// retained.
func (s *semispace) takeAll(out []mm.Ref) []mm.Ref {
	for _, c := range s.chunks {
		out = append(out, c.objects...)
		// Truncate rather than nil so the chunk keeps its list
		// capacity for the next allocation cycle (out holds its own
		// copies of the Refs).
		c.objects = c.objects[:0]
	}
	s.chunkIdx = 0
	s.top = ChunkHeaderSize
	return out
}

func (s *semispace) usedBytes() int64 {
	var n int64
	for _, c := range s.chunks {
		n += c.usedBytes()
	}
	return n
}

func (s *semispace) liveBytes() int64 {
	var n int64
	for _, c := range s.chunks {
		n += s.a.pool.LiveBytes(c.objects)
	}
	return n
}

// committedBytes is the chunk memory the semispace currently holds.
func (s *semispace) committedBytes() int64 { return int64(len(s.chunks)) * ChunkSize }

// trimToCapacity releases whole chunks beyond the capacity; only
// object-free chunks may be released, so callers shrink after a
// collection has compacted the space.
func (s *semispace) trimToCapacity() {
	maxChunks := int(s.capacity / ChunkSize)
	for len(s.chunks) > maxChunks {
		c := s.chunks[len(s.chunks)-1]
		if len(c.objects) > 0 {
			break
		}
		s.a.release(c)
		s.chunks = s.chunks[:len(s.chunks)-1]
		if s.chunkIdx > len(s.chunks) {
			s.chunkIdx = len(s.chunks)
		}
	}
}

// releaseFreePages returns every free data page in the semispace to
// the OS (chunk headers stay), batching the gaps of all chunks into
// one run list released in a single call.
func (s *semispace) releaseFreePages() {
	runs := s.a.scratch[:0]
	for _, c := range s.chunks {
		runs = c.appendFreeRuns(runs)
	}
	s.a.region.ReleaseRuns(runs)
	s.a.scratch = runs[:0]
}

func (s *semispace) String() string {
	return fmt.Sprintf("%s{cap=%dKB chunks=%d used=%dKB}",
		s.name, s.capacity/1024, len(s.chunks), s.usedBytes()/1024)
}

// largeEntry is one large object backed by a dedicated chunk run.
type largeEntry struct {
	obj    mm.Ref
	chunks []*chunk
}

// oldSpace is the mark-swept tenured space plus the large-object
// space: regular objects first-fit into chunk gaps; large objects get
// dedicated chunk runs.
type oldSpace struct {
	a      *arena
	limit  int64 // committed ceiling (the heap's --max-old-space-size share)
	chunks []*chunk
	large  []*largeEntry
}

// LargeObjectThreshold is the size above which an allocation bypasses
// the regular spaces, mirroring V8's large-object space.
const LargeObjectThreshold = 128 << 10

// Every object below the threshold fits a chunk payload, so a semispace
// bump always places it in an empty chunk.
var _ [ChunkUsable - LargeObjectThreshold]struct{}

func newOldSpace(a *arena, limit int64) *oldSpace {
	return &oldSpace{a: a, limit: limit}
}

func (s *oldSpace) committedBytes() int64 {
	n := int64(len(s.chunks)) * ChunkSize
	for _, e := range s.large {
		n += int64(len(e.chunks)) * ChunkSize
	}
	return n
}

func (s *oldSpace) usedBytes() int64 {
	var n int64
	for _, c := range s.chunks {
		n += c.usedBytes()
	}
	for _, e := range s.large {
		n += s.a.pool.At(e.obj).Bytes()
	}
	return n
}

func (s *oldSpace) liveBytes() int64 {
	var n int64
	pool := s.a.pool
	for _, c := range s.chunks {
		n += pool.LiveBytes(c.objects)
	}
	for _, e := range s.large {
		n += pool.At(e.obj).LiveBytes()
	}
	return n
}

// tryAllocate places run r in the old space, growing by whole chunks
// up to the limit, and returns the clusters it could not place: NoRef
// when all fit, r itself when none did. Clusters placed one by one
// would each first-fit over the chunks in order, and a chunk that
// holds no more of them stays so while they land, so the run fills
// chunk after chunk (chunk.place), then fresh chunks.
func (s *oldSpace) tryAllocate(r mm.Ref) mm.Ref {
	size := s.a.pool.At(r).Size
	if size > LargeObjectThreshold {
		if s.tryAllocateLarge(r, size) {
			return mm.NoRef
		}
		return r
	}
	for _, c := range s.chunks {
		if r = c.place(r); r == mm.NoRef {
			return mm.NoRef
		}
	}
	for {
		if s.committedBytes()+ChunkSize > s.limit {
			return r
		}
		c := s.a.alloc("old", size)
		if c == nil {
			return r
		}
		s.chunks = append(s.chunks, c)
		rest := c.place(r)
		if rest == r {
			panic("v8heap: fresh chunk cannot hold a non-large object")
		}
		if r = rest; r == mm.NoRef {
			return mm.NoRef
		}
	}
}

func (s *oldSpace) tryAllocateLarge(r mm.Ref, size int64) bool {
	need := int((size + ChunkUsable - 1) / ChunkUsable)
	if s.committedBytes()+int64(need)*ChunkSize > s.limit {
		return false
	}
	entry := &largeEntry{obj: r}
	remaining := size
	for i := 0; i < need; i++ {
		c := s.a.alloc("lo", 0)
		if c == nil {
			// Roll back partial runs.
			for _, rc := range entry.chunks {
				s.a.release(rc)
			}
			return false
		}
		span := remaining
		if span > ChunkUsable {
			span = ChunkUsable
		}
		c.touch(ChunkHeaderSize, span)
		remaining -= span
		entry.chunks = append(entry.chunks, c)
	}
	s.a.pool.At(r).Offset = ChunkHeaderSize
	s.large = append(s.large, entry)
	return true
}

// sweep removes collectible objects in place and releases chunks that
// become entirely free ("the generation shrinks after GC generates
// free chunks"), freeing the collected objects in the pool. It returns
// the bytes collected and the weak bytes among them.
func (s *oldSpace) sweep(aggressive bool) (collected, weak int64) {
	pool := s.a.pool
	keep := s.chunks[:0]
	for _, c := range s.chunks {
		col, wk := c.sweep(aggressive)
		collected += col
		weak += wk
		if len(c.objects) == 0 {
			s.a.release(c)
			continue
		}
		keep = append(keep, c)
	}
	s.chunks = keep

	keptLarge := s.large[:0]
	for _, e := range s.large {
		if o := pool.At(e.obj); o.Collectible(aggressive) {
			collected += o.Bytes()
			if o.Weak && !o.Dead {
				weak += o.Bytes()
			}
			o.Dead = true
			pool.Free(e.obj)
			for _, c := range e.chunks {
				s.a.release(c)
			}
			continue
		}
		keptLarge = append(keptLarge, e)
	}
	s.large = keptLarge
	return collected, weak
}

// releaseFreePages returns full free data pages in every surviving
// chunk to the OS. Fragmented sub-page free memory stays resident.
// All gaps — chunk-internal plus large-object tails — go to the OS as
// one coalesced run list.
func (s *oldSpace) releaseFreePages() {
	runs := s.a.scratch[:0]
	for _, c := range s.chunks {
		runs = c.appendFreeRuns(runs)
	}
	// Large-object runs: the tail beyond the object in the last chunk.
	for _, e := range s.large {
		last := e.chunks[len(e.chunks)-1]
		used := s.a.pool.At(e.obj).Bytes() - int64(len(e.chunks)-1)*ChunkUsable
		runs = osmem.AppendRun(runs, last.base()+ChunkHeaderSize+used, ChunkUsable-used)
	}
	s.a.region.ReleaseRuns(runs)
	s.a.scratch = runs[:0]
}
