package osmem

// Run is one byte range inside a region: Off is the byte offset from
// the start of the region, Len the length in bytes. GC phases that
// release many adjacent objects coalesce them into runs and hand the
// whole batch to ReleaseRuns, paying the call and cache overhead once
// per batch instead of once per object.
type Run struct {
	Off int64
	Len int64
}

// AppendRun appends [off, off+n) to runs, merging with the previous
// run only when the two are exactly adjacent at a page boundary.
// The conservative merge rule is what keeps ReleaseRuns faithful to
// the unbatched call sequence: ReleaseBytes rounds inward, so fusing
// two ranges across an unaligned join would release a straddling page
// the unfused calls keep. At page-aligned joins — GC space, v8 chunk,
// g1 region and Python arena boundaries are all page multiples —
// merging changes nothing observable. Runs with n <= 0 are dropped,
// mirroring the TouchBytes/ReleaseBytes no-op on empty ranges.
//
// AppendRun runs once per coalesced object batch — the per-object hot
// path — so beyond the amortized growth of runs itself it must not
// allocate.
func AppendRun(runs []Run, off, n int64) []Run {
	if n <= 0 {
		return runs
	}
	if k := len(runs); k > 0 {
		last := &runs[k-1]
		if off == last.Off+last.Len && off&(PageSize-1) == 0 {
			last.Len += n
			return runs
		}
	}
	return append(runs, Run{Off: off, Len: n})
}

// ReleaseRuns is the bulk form of ReleaseBytes: every run is rounded
// inward (partial pages at either end are kept, same as ReleaseBytes)
// and released, invalidating the usage cache at most once per call.
// Equivalent to calling ReleaseBytes for each run in order.
func (r *Region) ReleaseRuns(runs []Run) {
	if r.dead {
		panic("osmem: use of unmapped region " + r.Name)
	}
	any := false
	for _, run := range runs {
		if run.Len <= 0 {
			continue
		}
		first := (run.Off + PageSize - 1) >> PageShift // round up
		end := (run.Off + run.Len) >> PageShift        // round down
		if end > first {
			r.checkRange(first, end-first)
			r.releasePages(first, end-first)
			any = true
		}
	}
	if any {
		r.invalidate()
	}
}
