package osmem

import (
	"fmt"
	"math/bits"
	"sort"
)

// RegionKind distinguishes anonymous memory (heaps) from file-backed
// mappings (shared libraries, runtime images).
type RegionKind uint8

const (
	// Anon is private anonymous memory: zero-filled on first touch,
	// always dirty once touched.
	Anon RegionKind = iota
	// FileBacked is a private file mapping: pages are read from the
	// file on first touch and stay clean unless written.
	FileBacked
)

// Region is one contiguous virtual mapping inside an address space.
type Region struct {
	Name string
	Kind RegionKind
	// VA is the virtual address of the first byte.
	VA    int64
	pages int64
	file  *FileObject
	// foff is the first file page this region maps.
	foff   int64
	access bool // false after mprotect(PROT_NONE)
	// pb packs each page's state (bits 0-1) and dirty flag (bit 2)
	// into one byte, so a homogeneous run of pages is a homogeneous
	// run of bytes and every mutation path can process it in one
	// batched counter update (see touchPages/releasePages). It covers
	// only the materialized prefix [0, len(pb)) of the region: pages
	// at higher indexes are implicitly not-present and clean, and the
	// array grows on demand (see ensurePB) — mmap of a large
	// reservation allocates nothing, just as real mmap allocates no
	// page tables up front.
	pb []byte
	// pbBox is the pool box pb came in (see getPB); pb is *pbBox.
	pbBox *[]byte
	dead  bool
	as    *AddressSpace

	// Incremental counters, in pages, so footprint queries are O(1).
	resident int64
	swapped  int64

	// Usage cache: valid while the region is unmutated and (for file
	// mappings) the file's refcount version is unchanged.
	usageValid bool
	usageFver  uint64
	usage      Usage

	// clearEpoch increments on every operation that can take a page
	// out of the resident+dirty state (release, swap-out, protection
	// change, unmap). Touch-style operations never bump it — they only
	// add residency — so a caller that observed "pages [a,b) resident
	// and dirty" may skip re-touching them while the epoch is
	// unchanged. See mm.BumpSpace.TryAllocate.
	clearEpoch uint64
}

// ClearEpoch returns the region's clear-epoch counter; see the field
// comment. Purely an optimization hook — it carries no simulation
// semantics.
func (r *Region) ClearEpoch() uint64 { return r.clearEpoch }

// Pages returns the region's length in pages.
func (r *Region) Pages() int64 { return r.pages }

// Bytes returns the region's length in bytes.
func (r *Region) Bytes() int64 { return r.pages * PageSize }

// End returns the virtual address one past the region.
func (r *Region) End() int64 { return r.VA + r.Bytes() }

// Accessible reports whether the mapping is currently accessible
// (i.e. not PROT_NONE).
func (r *Region) Accessible() bool { return r.access }

// AddressSpace models one process's virtual memory.
type AddressSpace struct {
	id      int
	label   string
	machine *Machine
	nextVA  int64
	regions []*Region
	dead    bool

	// ussPages counts the pages this space alone holds resident: every
	// resident anonymous page, plus every resident file page whose
	// refcount is 1. Anonymous residency changes adjust it in place;
	// file pages move their credit in Region.ref/unref. It is what
	// keeps USS() O(1). Every change goes through addUSS, which keeps
	// the space's tally in step.
	ussPages int64
	// tally is the occupancy tally the space has joined, or nil.
	tally *Tally

	minorFaults int64
	majorFaults int64
	faultCost   int64 // accumulated microseconds, drained by the caller
}

// Label returns the human-readable name given at creation.
func (as *AddressSpace) Label() string { return as.label }

// ID returns the kernel-style identifier of the address space.
func (as *AddressSpace) ID() int { return as.id }

// Regions returns the live regions sorted by virtual address.
func (as *AddressSpace) Regions() []*Region {
	out := make([]*Region, len(as.regions))
	copy(out, as.regions)
	sort.Slice(out, func(i, j int) bool { return out[i].VA < out[j].VA })
	return out
}

// FindRegion returns the region with the given name, or nil.
func (as *AddressSpace) FindRegion(name string) *Region {
	for _, r := range as.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func (as *AddressSpace) checkAlive() {
	if as.dead {
		panic("osmem: use of destroyed address space")
	}
}

// MmapAnon reserves pages of private anonymous memory. Nothing is
// resident until touched — this is mmap(MAP_ANONYMOUS), reserving
// virtual space only, which is how both runtimes reserve their heaps.
func (as *AddressSpace) MmapAnon(name string, bytes int64) *Region {
	as.checkAlive()
	pages := PagesFor(bytes)
	r := &Region{
		Name:   name,
		Kind:   Anon,
		VA:     as.nextVA,
		pages:  pages,
		access: true,
		as:     as,
	}
	as.nextVA += r.Bytes() + PageSize // guard page gap
	as.regions = append(as.regions, r)
	return r
}

// MmapFile maps a file object privately (MAP_PRIVATE). offPages is the
// first file page to map; pages is the mapping length.
func (as *AddressSpace) MmapFile(name string, f *FileObject, offPages, pages int64) *Region {
	as.checkAlive()
	if offPages < 0 || pages < 0 || offPages+pages > f.Pages {
		panic(fmt.Sprintf("osmem: file mapping out of range: off=%d len=%d file=%d",
			offPages, pages, f.Pages))
	}
	r := &Region{
		Name:   name,
		Kind:   FileBacked,
		VA:     as.nextVA,
		pages:  pages,
		file:   f,
		foff:   offPages,
		access: true,
		as:     as,
	}
	as.nextVA += r.Bytes() + PageSize
	as.regions = append(as.regions, r)
	return r
}

// runEnd returns the end (exclusive) of the homogeneous run starting
// at i: the first index in (i, end) whose packed page byte differs
// from pb[i]. Every fast path below is a loop over such runs.
//
// It compares eight page bytes at a time: XOR of a little-endian word
// against v repeated in every byte leaves the first differing page as
// the lowest nonzero byte.
func runEnd(pb []byte, i, end int64) int64 {
	v := pb[i]
	j := i + 1
	pat := uint64(v) * 0x0101010101010101
	for ; j+8 <= end; j += 8 {
		b := pb[j : j+8 : j+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if x := w ^ pat; x != 0 {
			return j + int64(bits.TrailingZeros64(x)>>3)
		}
	}
	for j < end && pb[j] == v {
		j++
	}
	return j
}

// fillBytes sets every byte of b to v, doubling the filled prefix with
// copy once b is long enough for that to beat a byte loop.
func fillBytes(b []byte, v byte) {
	if len(b) < 16 {
		for i := range b {
			b[i] = v
		}
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// ensurePB materializes the page byte array to cover at least pages
// [0, end). Pages at indexes >= len(pb) are implicitly not-present and
// clean, so the array tracks the touched prefix of the region — for a
// large, sparsely used reservation that is a fraction of r.pages.
// Growth jumps to the power of two above end (capped at the region
// length), adopts a zeroed array from the shared pools (a miss
// allocates; the doubling schedule amortizes that to O(1) per
// materialized page), and hands the outgrown array back zeroed.
func (r *Region) ensurePB(end int64) []byte {
	pb := r.pb
	if int64(len(pb)) >= end {
		return pb
	}
	want := int64(64)
	for want < end {
		want <<= 1
	}
	if want > r.pages {
		want = r.pages
	}
	nb := getPB(want)
	np := *nb
	copy(np, pb)
	if pb != nil {
		clear(pb)
		putPB(r.pbBox)
	}
	r.pb, r.pbBox = np, nb
	return np
}

// invalidate marks the cached usage stale.
func (r *Region) invalidate() { r.usageValid = false }

func (r *Region) checkRange(page, n int64) {
	if r.dead {
		panic("osmem: use of unmapped region " + r.Name)
	}
	if page < 0 || n < 0 || page+n > r.pages {
		panic(fmt.Sprintf("osmem: range [%d,%d) outside region %q (%d pages)",
			page, page+n, r.Name, r.pages))
	}
}

// Touch accesses n pages starting at page, faulting them in as needed.
// write marks the pages dirty (relevant only for file mappings; anon
// pages are always dirty once resident). Touching an inaccessible
// (PROT_NONE) region panics — that is a segfault in the model.
func (r *Region) Touch(page, n int64, write bool) {
	r.checkRange(page, n)
	if !r.access {
		panic(fmt.Sprintf("osmem: segfault: touch of PROT_NONE region %q", r.Name))
	}
	if r.touchPages(page, n, write) {
		r.invalidate()
	}
}

// touchPages applies the fault-in state machine to [page, page+n) one
// homogeneous run at a time and reports whether any page changed
// (state or dirtiness) — the condition under which the usage cache
// must drop. Batching is observable-identical to the per-page loop it
// replaced: page transitions are independent, counters and fault
// costs are sums over pages, and the file refcount version only ever
// feeds equality checks, so bumping it once per call equals bumping
// it once per page.
func (r *Region) touchPages(page, n int64, write bool) bool {
	if n == 0 {
		return false
	}
	as := r.as
	m := as.machine
	end := page + n
	pb := r.ensurePB(end)
	mutated := false
	fileTouched := false
	var dirtyBit byte
	if write || r.Kind == Anon {
		dirtyBit = pageDirty
	}
	for i := page; i < end; {
		j := runEnd(pb, i, end)
		k := j - i
		v := pb[i]
		switch v & pageStateMask {
		case pageResident:
			// hit; at most the dirty bit flips
			if dirtyBit != 0 && v&pageDirty == 0 {
				fillBytes(pb[i:j], v|pageDirty)
				mutated = true
			}
		case pageNotPresent:
			r.resident += k
			m.physPages += k
			if m.physPages > m.peakPhys {
				m.peakPhys = m.physPages
			}
			m.counters.Commits += k
			if r.Kind == FileBacked {
				// First touch of a file page: pages no mapping holds
				// resident are read from disk (major fault), the rest
				// come from the page cache (minor fault).
				reads := r.ref(i, j)
				as.majorFaults += reads
				as.faultCost += reads * majorFaultCost
				as.minorFaults += k - reads
				as.faultCost += (k - reads) * minorFaultCost
				fileTouched = true
			} else {
				as.addUSS(k)
				as.minorFaults += k
				as.faultCost += k * minorFaultCost
			}
			fillBytes(pb[i:j], pageResident|dirtyBit)
			mutated = true
		case pageSwapped:
			r.swapped -= k
			r.resident += k
			m.physPages += k
			if m.physPages > m.peakPhys {
				m.peakPhys = m.physPages
			}
			m.swapPages -= k
			m.counters.Commits += k
			m.counters.SwapIns += k
			if r.Kind == FileBacked {
				r.ref(i, j)
				fileTouched = true
			} else {
				as.addUSS(k)
			}
			as.majorFaults += k
			as.faultCost += k * majorFaultCost
			fillBytes(pb[i:j], pageResident|(v&pageDirty)|dirtyBit)
			mutated = true
		}
		i = j
	}
	if fileTouched {
		r.file.version++
	}
	return mutated
}

// ref records file pages [i, j) of the region as resident in one more
// mapping and moves USS credit on the two transitions that change who
// holds a page alone: 0→1 credits this space, 1→2 debits the previous
// sole holder, found through the page's holder XOR, and counts the
// page shared. A space mapping the page through two regions is its own
// previous holder, so the page turns shared exactly as RegionUsage
// classifies it (refcount 2).
// It returns the number of 0→1 pages: on a first touch, the pages no
// mapping had resident, which are read from disk. A run of debits to
// one holder is applied once, when the holder changes.
func (r *Region) ref(i, j int64) int64 {
	as := r.as
	id := int32(as.id)
	refs := r.file.refs[r.foff+i : r.foff+j]
	holders := r.file.holders[r.foff+i : r.foff+j]
	var own, shared, debit int64
	var last *AddressSpace
	for z, rc := range refs {
		switch rc {
		case 0:
			own++
		case 1:
			if h := as.machine.holder(last, holders[z]); h != last {
				last.addUSS(-debit)
				last, debit = h, 0
			}
			debit++
			shared++
		}
		refs[z] = rc + 1
		holders[z] ^= id
	}
	last.addUSS(-debit)
	as.addUSS(own)
	r.file.shared += shared
	return own
}

// unref is the inverse of ref: 1→0 debits this space, 2→1 credits the
// space left holding the page alone and counts the page shared no
// more.
func (r *Region) unref(i, j int64) {
	as := r.as
	id := int32(as.id)
	refs := r.file.refs[r.foff+i : r.foff+j]
	holders := r.file.holders[r.foff+i : r.foff+j]
	var own, shared, credit int64
	var last *AddressSpace
	for z, rc := range refs {
		h := holders[z] ^ id
		holders[z] = h
		refs[z] = rc - 1
		switch rc {
		case 1:
			own--
		case 2:
			if s := as.machine.holder(last, h); s != last {
				last.addUSS(credit)
				last, credit = s, 0
			}
			credit++
			shared--
		}
	}
	last.addUSS(credit)
	as.addUSS(own)
	r.file.shared += shared
}

// TouchBytes is Touch addressed in bytes rather than pages; offsets
// are rounded outward to page boundaries.
func (r *Region) TouchBytes(off, n int64, write bool) {
	if n == 0 {
		return
	}
	first := off >> PageShift
	last := (off + n - 1) >> PageShift
	r.Touch(first, last-first+1, write)
}

// Release is madvise(MADV_DONTNEED): physical frames (or swap slots)
// for the range are freed; the next touch zero-fills (anon) or re-reads
// (file). This is the primitive Desiccant's reclaim uses to return
// free heap pages to the OS.
func (r *Region) Release(page, n int64) {
	r.checkRange(page, n)
	r.releasePages(page, n)
	r.invalidate()
}

// releasePages frees the frames and swap slots of [page, page+n), one
// homogeneous run at a time, leaving every page not-present and clean.
func (r *Region) releasePages(page, n int64) {
	pb := r.pb
	lim := int64(len(pb))
	if n == 0 || page >= lim {
		return // nothing in range was ever resident or swapped
	}
	end := page + n
	if end > lim {
		end = lim // pages past the materialized prefix are not-present
	}
	r.clearEpoch++
	m := r.as.machine
	fileTouched := false
	for i := page; i < end; {
		j := runEnd(pb, i, end)
		k := j - i
		switch pb[i] & pageStateMask {
		case pageResident:
			m.physPages -= k
			m.counters.Releases += k
			r.resident -= k
			if r.Kind == FileBacked {
				r.unref(i, j)
				fileTouched = true
			} else {
				r.as.addUSS(-k)
			}
		case pageSwapped:
			m.swapPages -= k
			r.swapped -= k
		}
		i = j
	}
	clear(pb[page:end])
	if fileTouched {
		r.file.version++
	}
}

// ReleaseBytes is Release addressed in bytes. Partial pages at either
// end are NOT released (a partial page still holds live data) — this
// is the "page alignment overhead" the paper attributes to the small
// gap between Desiccant and the ideal baseline for Java functions.
func (r *Region) ReleaseBytes(off, n int64) {
	if n <= 0 {
		return
	}
	first := (off + PageSize - 1) >> PageShift // round up
	end := (off + n) >> PageShift              // round down
	if end > first {
		r.Release(first, end-first)
	}
}

// ProtectNone models HotSpot's shrink: the range is remapped
// inaccessible and its physical pages are cleared (the paper: heap
// shrinking is "achieved via mmap since it can clear the physical
// pages mapped to the given virtual address range... marking pages as
// inaccessible (PROT_NONE)"). The model applies it to whole regions.
func (r *Region) ProtectNone() {
	r.checkRange(0, r.pages)
	r.Release(0, r.pages)
	r.access = false
	r.clearEpoch++
}

// ProtectRW makes a PROT_NONE region accessible again (heap expand).
func (r *Region) ProtectRW() {
	if r.dead {
		panic("osmem: use of unmapped region " + r.Name)
	}
	r.access = true
}

// SwapOutUpTo pushes resident pages in [page, page+n) out to the swap
// device (anon) or simply drops them (file-backed clean pages can
// always be re-read), in ascending page order, stopping once maxPages
// pages have moved. This is the §5.6 swapping baseline: the OS has no
// runtime semantics, so callers typically swap entire regions, live
// data included, under the machine's swap budget.
//
// It returns the number of pages that actually moved to the swap
// device. Clean file drops are not counted (they consume no swap
// slot), and once the machine's swap limit is reached dirty pages
// simply stay resident — exactly what Linux does when swap fills up —
// so callers must use the return value, not the requested range, for
// swap accounting.
func (r *Region) SwapOutUpTo(page, n, maxPages int64) int64 {
	r.checkRange(page, n)
	if maxPages < 0 {
		maxPages = 0
	}
	moved := r.swapOutPages(page, n, maxPages)
	r.invalidate()
	return moved
}

// swapOutPages implements SwapOutUpTo run by run: scanning stops once
// maxMoved pages have moved (clean file drops are not counted).
func (r *Region) swapOutPages(page, n, maxMoved int64) int64 {
	pb := r.pb
	lim := int64(len(pb))
	if page >= lim {
		return 0 // nothing in range resident to move or drop
	}
	end := page + n
	if end > lim {
		end = lim // pages past the materialized prefix are not-present
	}
	r.clearEpoch++
	m := r.as.machine
	var moved int64
	fileTouched := false
	for i := page; i < end; {
		if moved >= maxMoved {
			break
		}
		j := runEnd(pb, i, end)
		k := j - i
		v := pb[i]
		if v&pageStateMask != pageResident {
			i = j
			continue
		}
		if r.Kind == FileBacked && v&pageDirty == 0 {
			// Clean file run: drop; re-read on demand.
			m.physPages -= k
			m.counters.Releases += k
			r.unref(i, j)
			fileTouched = true
			r.resident -= k
			clear(pb[i:j])
			i = j
			continue
		}
		// Dirty (or anonymous) run: swap out up to the device's free
		// slots and the caller's budget; the rest stays resident.
		c := k
		if moved+c > maxMoved {
			c = maxMoved - moved
		}
		if m.swapLimit > 0 {
			if free := m.swapLimit - m.swapPages; free < c {
				c = free
			}
		}
		if c > 0 {
			m.physPages -= c
			m.swapPages += c
			m.counters.SwapOuts += c
			r.resident -= c
			r.swapped += c
			moved += c
			if r.Kind == FileBacked {
				r.unref(i, i+c)
				fileTouched = true
			} else {
				r.as.addUSS(-c)
			}
			fillBytes(pb[i:i+c], pageSwapped|(v&pageDirty))
		}
		i = j
	}
	if fileTouched {
		r.file.version++
	}
	return moved
}

// FaultInUpTo touches (with write intent) at most maxPages currently
// non-resident pages of [page, page+n) in ascending order, skipping
// resident ones — the bulk form of the per-page retouch loop the §5.6
// baseline runs after activation to measure post-swap fault cost.
// Returns the number of pages faulted in.
func (r *Region) FaultInUpTo(page, n, maxPages int64) int64 {
	r.checkRange(page, n)
	if !r.access {
		panic(fmt.Sprintf("osmem: segfault: touch of PROT_NONE region %q", r.Name))
	}
	if n == 0 || maxPages <= 0 {
		return 0
	}
	end := page + n
	pb := r.ensurePB(end) // every page below may be about to fault in
	var faulted int64
	mutated := false
	for i := page; i < end && faulted < maxPages; {
		j := runEnd(pb, i, end)
		if pb[i]&pageStateMask == pageResident {
			i = j
			continue
		}
		k := j - i
		if faulted+k > maxPages {
			k = maxPages - faulted
		}
		if r.touchPages(i, k, true) {
			mutated = true
		}
		faulted += k
		i = j
	}
	if mutated {
		r.invalidate()
	}
	return faulted
}

// ReleaseClean drops every resident, unmodified page of a file-backed
// region (the §4.6 shared-library optimization: ranges that are
// private, not modified, and mapped from files can be unmapped and
// re-read from disk on demand). Returns the bytes released. Calling it
// on an anonymous region is an error: anonymous pages have no backing
// store to re-read.
func (r *Region) ReleaseClean() int64 {
	if r.Kind != FileBacked {
		panic("osmem: ReleaseClean on anonymous region " + r.Name)
	}
	pb := r.pb
	lim := int64(len(pb))
	if lim == 0 {
		r.invalidate()
		return 0
	}
	var released int64
	r.clearEpoch++
	m := r.as.machine
	fileTouched := false
	for i := int64(0); i < lim; {
		j := runEnd(pb, i, lim)
		if pb[i] == pageResident { // resident and clean
			k := j - i
			m.physPages -= k
			m.counters.Releases += k
			r.unref(i, j)
			fileTouched = true
			r.resident -= k
			clear(pb[i:j])
			released += k * PageSize
		}
		i = j
	}
	if fileTouched {
		r.file.version++
	}
	r.invalidate()
	return released
}

// SharesResidentPages reports whether any of the region's resident
// pages is also resident in another mapping (refcount > 1). Always
// false for anonymous regions. While no page of the file is resident
// in two mappings the answer is false without a walk; otherwise the
// walk stops at the first shared resident page.
func (r *Region) SharesResidentPages() bool {
	if r.Kind != FileBacked || r.file.shared == 0 {
		return false
	}
	pb := r.pb
	lim := int64(len(pb))
	refs := r.file.refs[r.foff:]
	for i := int64(0); i < lim; {
		j := runEnd(pb, i, lim)
		if pb[i]&pageStateMask == pageResident {
			for _, rc := range refs[i:j] {
				if rc > 1 {
					return true
				}
			}
		}
		i = j
	}
	return false
}

// Unmap removes the region from the address space entirely, freeing
// physical pages and swap slots. Used both for ordinary teardown and
// for Desiccant's shared-library unmap optimization.
func (as *AddressSpace) Unmap(r *Region) {
	as.checkAlive()
	if r.as != as {
		panic("osmem: Unmap of foreign region")
	}
	as.releaseRange(r, 0, r.pages)
	r.dead = true
	r.clearEpoch++
	r.dropPB()
	for i, q := range as.regions {
		if q == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			break
		}
	}
}

func (as *AddressSpace) releaseRange(r *Region, page, n int64) {
	r.Release(page, n)
}

// ResidentPages returns how many of the region's pages are resident.
func (r *Region) ResidentPages() int64 { return r.resident }

// ResidentBytesIn returns the resident bytes among the whole pages of
// [page, page+n), in one run scan.
func (r *Region) ResidentBytesIn(page, n int64) int64 {
	r.checkRange(page, n)
	pb := r.pb
	lim := int64(len(pb))
	if page >= lim {
		return 0
	}
	end := page + n
	if end > lim {
		end = lim // pages past the materialized prefix are not-present
	}
	var res int64
	for i := page; i < end; {
		j := runEnd(pb, i, end)
		if pb[i]&pageStateMask == pageResident {
			res += j - i
		}
		i = j
	}
	return res * PageSize
}

// SwappedPages returns how many of the region's pages are on swap.
func (r *Region) SwappedPages() int64 { return r.swapped }

// MinorFaults returns the address space's lifetime minor fault count.
func (as *AddressSpace) MinorFaults() int64 { return as.minorFaults }

// MajorFaults returns the address space's lifetime major fault count.
func (as *AddressSpace) MajorFaults() int64 { return as.majorFaults }

// DrainFaultCost returns the microseconds of fault servicing charged
// since the previous drain and resets the accumulator. Execution
// engines fold this into invocation latency.
func (as *AddressSpace) DrainFaultCost() int64 {
	c := as.faultCost
	as.faultCost = 0
	return c
}
