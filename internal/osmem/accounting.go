package osmem

import (
	"fmt"
	"math"
	"strings"
)

// addRep returns the value of acc after c repeated additions of q
// (`for i := 0; i < c; i++ { acc += q }`), bit-identical to that loop
// but in O(binades) instead of O(c). While the accumulator stays
// within one power-of-two range, every addition lands on the same ulp
// grid with the same fractional offset, so the rounded increment is
// constant: once two consecutive additions produce the same increment,
// the whole stretch up to the next power of two collapses into one
// exact multiply-add (all quantities involved are ulp multiples, so
// nothing re-rounds). Rounding ties that alternate and boundary
// crossings fail the two-step probe and fall back to single steps.
// The per-page PSS accumulation runs on top of this: a run of pages
// with equal refcount adds the same quotient thousands of times, and
// the scan must stay bit-for-bit equal to the historical per-page
// loop.
func addRep(acc, q float64, c int64) float64 {
	for c > 0 {
		s1 := acc + q
		if s1 == acc {
			return acc // fixed point: the addend rounds away entirely
		}
		d := s1 - acc
		if s1+q-s1 != d || d <= 0 {
			acc = s1
			c--
			continue
		}
		_, e := math.Frexp(s1)
		bound := math.Ldexp(1, e) // s1 < bound, within s1's binade
		n := int64((bound - s1) / d)
		if n <= 0 {
			acc = s1
			c--
			continue
		}
		if n > c-1 {
			n = c - 1
		}
		acc = s1 + float64(n)*d
		c -= n + 1
	}
	return acc
}

// Usage is the smaps-style memory accounting for one address space or
// one region, in bytes.
//
//   - RSS counts every resident page.
//   - PSS counts each resident page divided by the number of address
//     spaces sharing it.
//   - USS counts only pages resident in no other address space
//     (private_dirty + private_clean) — the paper's primary metric.
type Usage struct {
	RSS          int64
	PSS          float64
	USS          int64
	PrivateDirty int64
	PrivateClean int64
	SharedClean  int64
	Swap         int64
}

func (u Usage) add(v Usage) Usage {
	u.RSS += v.RSS
	u.PSS += v.PSS
	u.USS += v.USS
	u.PrivateDirty += v.PrivateDirty
	u.PrivateClean += v.PrivateClean
	u.SharedClean += v.SharedClean
	u.Swap += v.Swap
	return u
}

func (u Usage) String() string {
	return fmt.Sprintf("uss=%.2fMB rss=%.2fMB pss=%.2fMB swap=%.2fMB",
		float64(u.USS)/(1<<20), float64(u.RSS)/(1<<20), u.PSS/(1<<20),
		float64(u.Swap)/(1<<20))
}

// RegionUsage computes accounting for one region. Anonymous regions
// are O(1) (every resident page is private and dirty); file-backed
// regions scan their pages but cache the result until either the
// region mutates or the backing file's refcounts change, which keeps
// repeated smaps reads and the invariant checker's Usage sweeps cheap.
// Cache-occupancy queries do not come here: they read
// AddressSpace.USS, which is O(1).
func RegionUsage(r *Region) Usage {
	if r.Kind == Anon {
		bytes := r.resident * PageSize
		return Usage{
			RSS: bytes, PSS: float64(bytes), USS: bytes,
			PrivateDirty: bytes, Swap: r.swapped * PageSize,
		}
	}
	if r.usageValid && r.usageFver == r.file.version {
		return r.usage
	}
	var u Usage
	pb := r.pb
	lim := int64(len(pb))
	if lim == 0 { // never faulted: everything not-present
		r.usage = u
		r.usageValid = true
		r.usageFver = r.file.version
		return u
	}
	refs := r.file.refs
	base := r.foff
	for i := int64(0); i < lim; {
		j := runEnd(pb, i, lim)
		v := pb[i]
		switch v & pageStateMask {
		case pageResident:
			u.RSS += (j - i) * PageSize
			// Sub-runs of equal refcount share one classification and
			// one division; the PSS additions stay per-page and in
			// page order so the float64 accumulation is bit-identical
			// to the per-page scan this replaced.
			for x := i; x < j; {
				rc := refs[base+x]
				if rc <= 0 {
					panic("osmem: resident file page with zero refcount")
				}
				y := x + 1
				for y < j && refs[base+y] == rc {
					y++
				}
				c := y - x
				q := float64(PageSize) / float64(rc)
				u.PSS = addRep(u.PSS, q, c)
				if rc == 1 {
					u.USS += c * PageSize
					if v&pageDirty != 0 {
						u.PrivateDirty += c * PageSize
					} else {
						u.PrivateClean += c * PageSize
					}
				} else {
					u.SharedClean += c * PageSize
				}
				x = y
			}
		case pageSwapped:
			u.Swap += (j - i) * PageSize
		}
		i = j
	}
	r.usage = u
	r.usageValid = true
	r.usageFver = r.file.version
	return u
}

// Usage computes accounting for the whole address space.
func (as *AddressSpace) Usage() Usage {
	var u Usage
	for _, r := range as.regions {
		u = u.add(RegionUsage(r))
	}
	return u
}

// USS returns the address space's unique set size in bytes: the same
// number as Usage().USS, read from the incrementally kept page count
// in O(1) instead of summing the regions.
func (as *AddressSpace) USS() int64 { return as.ussPages * PageSize }

// SmapsEntry is one line of the simulated /proc/<pid>/smaps.
type SmapsEntry struct {
	Region *Region
	Usage  Usage
}

// Smaps returns per-region accounting in address order, the input to
// Desiccant's §4.6 shared-library scan ("searching the per-process
// smaps file for memory ranges that are (1) private to the current
// process, (2) not modified, and (3) mapped from files").
func (as *AddressSpace) Smaps() []SmapsEntry {
	regions := as.Regions()
	out := make([]SmapsEntry, 0, len(regions))
	for _, r := range regions {
		out = append(out, SmapsEntry{Region: r, Usage: RegionUsage(r)})
	}
	return out
}

// PmapRange returns resident bytes within [va, va+len) across all
// regions — the pmap query the platform uses to observe a HotSpot
// heap's physical footprint from outside (§4.5.2).
func (as *AddressSpace) PmapRange(va, length int64) int64 {
	var total int64
	end := va + length
	for _, r := range as.regions {
		if r.End() <= va || r.VA >= end {
			continue
		}
		firstPage := int64(0)
		if va > r.VA {
			firstPage = (va - r.VA) >> PageShift
		}
		lastPage := r.pages
		if end < r.End() {
			lastPage = (end - r.VA + PageSize - 1) >> PageShift
		}
		if firstPage == 0 && lastPage == r.pages {
			// Whole region covered: the incremental counter already
			// holds the answer — this is the common case, a platform
			// pmap query over an entire heap mapping.
			total += r.resident * PageSize
			continue
		}
		pb := r.pb
		if lastPage > int64(len(pb)) {
			lastPage = int64(len(pb)) // the rest is not-present
		}
		if firstPage >= lastPage {
			continue
		}
		for i := firstPage; i < lastPage; {
			j := runEnd(pb, i, lastPage)
			if pb[i]&pageStateMask == pageResident {
				total += (j - i) * PageSize
			}
			i = j
		}
	}
	return total
}

// FormatSmaps renders the smaps table as text, for CLI inspection.
func (as *AddressSpace) FormatSmaps() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %10s %10s\n",
		"REGION", "SIZE_KB", "RSS_KB", "USS_KB", "PSS_KB", "SWAP_KB")
	for _, e := range as.Smaps() {
		fmt.Fprintf(&b, "%-24s %10d %10d %10d %10.0f %10d\n",
			e.Region.Name, e.Region.Bytes()/1024, e.Usage.RSS/1024,
			e.Usage.USS/1024, e.Usage.PSS/1024, e.Usage.Swap/1024)
	}
	return b.String()
}
