package osmem

// Differential oracle for the run-length fast paths in addrspace.go:
// a deliberately naive per-page reference model applies every public
// operation one page at a time, straight from the documented contract,
// and the test drives both implementations through seeded random op
// sequences, comparing the complete observable surface — per-region
// and per-space Usage, the O(1) USS counter, machine page counters,
// fault counts and costs, operation return values — after every
// single op, plus a full Machine.Audit. Any divergence prints the
// sequence seed so the run can be replayed under a debugger.
// FuzzOracleOps drives the same world from fuzzer-chosen bytes.

import (
	"fmt"
	"math/rand"
	"testing"
)

// opSource is the randomness an op sequence draws from: a seeded
// *rand.Rand for the random sweep, the fuzzer's input bytes for
// FuzzOracleOps.
type opSource interface {
	Intn(n int) int
	Int63n(n int64) int64
}

// byteSource decodes fuzz input into draws: two big-endian bytes per
// Intn, four per Int63n, each reduced modulo the bound. An exhausted
// input reads as zeros, so every input decodes to a valid sequence.
type byteSource struct{ data []byte }

func (s *byteSource) next(k int) uint64 {
	var v uint64
	for ; k > 0; k-- {
		v <<= 8
		if len(s.data) > 0 {
			v |= uint64(s.data[0])
			s.data = s.data[1:]
		}
	}
	return v
}

func (s *byteSource) Intn(n int) int       { return int(s.next(2) % uint64(n)) }
func (s *byteSource) Int63n(n int64) int64 { return int64(s.next(4) % uint64(n)) }

// refFile mirrors FileObject: machine-wide page-cache refcounts.
type refFile struct {
	pages int64
	refs  []int32
}

// refRegion tracks page state the slow, obvious way: one state byte
// and one dirty bool per page, no incremental counters, no caches.
type refRegion struct {
	kind   RegionKind
	pages  int64
	file   *refFile
	foff   int64
	access bool
	st     []byte // 0 = not present, 1 = resident, 2 = swapped
	dirty  []bool
}

type refSpace struct {
	regions   []*refRegion
	minor     int64
	major     int64
	faultCost int64 // lifetime total, never drained
}

type refMachine struct {
	phys      int64
	swap      int64
	swapLimit int64
	counters  PageCounters
}

// touchPage is the single-page fault-in state machine, transcribed
// from the Touch contract.
func (m *refMachine) touchPage(s *refSpace, r *refRegion, p int64, write bool) {
	dirty := write || r.kind == Anon
	switch r.st[p] {
	case 0: // not present
		m.phys++
		m.counters.Commits++
		if r.kind == FileBacked {
			if r.file.refs[r.foff+p] > 0 {
				s.minor++
				s.faultCost += minorFaultCost
			} else {
				s.major++
				s.faultCost += majorFaultCost
			}
			r.file.refs[r.foff+p]++
		} else {
			s.minor++
			s.faultCost += minorFaultCost
		}
		r.st[p] = 1
		r.dirty[p] = dirty
	case 1: // resident: at most the dirty bit flips
		if dirty {
			r.dirty[p] = true
		}
	case 2: // swapped
		m.swap--
		m.phys++
		m.counters.Commits++
		m.counters.SwapIns++
		if r.kind == FileBacked {
			r.file.refs[r.foff+p]++
		}
		s.major++
		s.faultCost += majorFaultCost
		r.st[p] = 1
		if dirty {
			r.dirty[p] = true
		}
	}
}

// releasePage is the single-page MADV_DONTNEED.
func (m *refMachine) releasePage(r *refRegion, p int64) {
	switch r.st[p] {
	case 1:
		m.phys--
		m.counters.Releases++
		if r.kind == FileBacked {
			r.file.refs[r.foff+p]--
		}
	case 2:
		m.swap--
	}
	r.st[p] = 0
	r.dirty[p] = false
}

// swapOutPage moves one page toward the swap device and reports how
// many pages actually moved (clean file drops move zero).
func (m *refMachine) swapOutPage(r *refRegion, p int64) int64 {
	if r.st[p] != 1 {
		return 0
	}
	if r.kind == FileBacked && !r.dirty[p] {
		// Clean file page: drop, re-read on demand, no swap slot.
		m.phys--
		m.counters.Releases++
		r.file.refs[r.foff+p]--
		r.st[p] = 0
		return 0
	}
	if m.swapLimit > 0 && m.swap >= m.swapLimit {
		return 0 // device full; the page stays resident
	}
	m.phys--
	m.swap++
	m.counters.SwapOuts++
	if r.kind == FileBacked {
		r.file.refs[r.foff+p]--
	}
	r.st[p] = 2 // dirty bit survives the round trip
	return 1
}

func (m *refMachine) touch(s *refSpace, r *refRegion, page, n int64, write bool) {
	for p := page; p < page+n; p++ {
		m.touchPage(s, r, p, write)
	}
}

func (m *refMachine) touchBytes(s *refSpace, r *refRegion, off, n int64, write bool) {
	if n == 0 {
		return
	}
	first := off >> PageShift
	last := (off + n - 1) >> PageShift
	m.touch(s, r, first, last-first+1, write)
}

func (m *refMachine) release(r *refRegion, page, n int64) {
	for p := page; p < page+n; p++ {
		m.releasePage(r, p)
	}
}

func (m *refMachine) releaseBytes(r *refRegion, off, n int64) {
	if n <= 0 {
		return
	}
	first := (off + PageSize - 1) >> PageShift
	end := (off + n) >> PageShift
	if end > first {
		m.release(r, first, end-first)
	}
}

func (m *refMachine) swapOutUpTo(r *refRegion, page, n, maxPages int64) int64 {
	var moved int64
	for p := page; p < page+n && moved < maxPages; p++ {
		moved += m.swapOutPage(r, p)
	}
	return moved
}

func (m *refMachine) faultInUpTo(s *refSpace, r *refRegion, page, n, maxPages int64) int64 {
	var faulted int64
	for p := page; p < page+n && faulted < maxPages; p++ {
		if r.st[p] == 1 {
			continue
		}
		m.touchPage(s, r, p, true)
		faulted++
	}
	return faulted
}

func (m *refMachine) releaseClean(r *refRegion) int64 {
	var released int64
	for p := int64(0); p < r.pages; p++ {
		if r.st[p] == 1 && !r.dirty[p] {
			m.phys--
			m.counters.Releases++
			r.file.refs[r.foff+p]--
			r.st[p] = 0
			released += PageSize
		}
	}
	return released
}

func (m *refMachine) protectNone(r *refRegion) {
	m.release(r, 0, r.pages)
	r.access = false
}

// usage recomputes the region's smaps accounting from first
// principles, page by page in page order (so the float64 PSS
// accumulation matches the real implementation bit for bit).
func (r *refRegion) usage() Usage {
	var u Usage
	for p := int64(0); p < r.pages; p++ {
		switch r.st[p] {
		case 1:
			u.RSS += PageSize
			if r.kind == Anon {
				u.PSS += float64(PageSize)
				u.USS += PageSize
				u.PrivateDirty += PageSize
				continue
			}
			rc := r.file.refs[r.foff+p]
			u.PSS += float64(PageSize) / float64(rc)
			if rc == 1 {
				u.USS += PageSize
				if r.dirty[p] {
					u.PrivateDirty += PageSize
				} else {
					u.PrivateClean += PageSize
				}
			} else {
				u.SharedClean += PageSize
			}
		case 2:
			u.Swap += PageSize
		}
	}
	// The real anon fast path converts the page count once instead of
	// accumulating, but sums of whole 4096s are exact in float64
	// either way, so equality stays exact.
	return u
}

func (s *refSpace) usage() Usage {
	var u Usage
	for _, r := range s.regions {
		u = u.add(r.usage())
	}
	return u
}

func (r *refRegion) residentPages() int64 {
	var n int64
	for p := int64(0); p < r.pages; p++ {
		if r.st[p] == 1 {
			n++
		}
	}
	return n
}

func (r *refRegion) swappedPages() int64 {
	var n int64
	for p := int64(0); p < r.pages; p++ {
		if r.st[p] == 2 {
			n++
		}
	}
	return n
}

func (r *refRegion) sharedResidentPages() int64 {
	if r.kind != FileBacked {
		return 0
	}
	var n int64
	for p := int64(0); p < r.pages; p++ {
		if r.st[p] == 1 && r.file.refs[r.foff+p] > 1 {
			n++
		}
	}
	return n
}

// --- paired world: the real machine and the reference in lockstep ---

type pairedRegion struct {
	real *Region
	ref  *refRegion
}

type pairedSpace struct {
	real    *AddressSpace
	ref     *refSpace
	regions []*pairedRegion
	drained int64 // fault cost drained from the real space so far
}

type pairedWorld struct {
	real    *Machine
	ref     *refMachine
	file    *FileObject
	refFile *refFile
	spaces  []*pairedSpace
}

// spaceLayout is one process's mappings: a heap and an arena of
// anonymous memory around one or more windows onto libshared.so.
type spaceLayout struct {
	label     string
	anonPages int64
	libs      [][2]int64 // {first file page, length} per mapping
}

// oracleLayouts overlap so that refcounts exercise 0 through 3 and
// one space holds pages twice:
//   - p1 and p2 share file pages [32, 64);
//   - p3 overlaps both, so pages [32, 64) reach refcount 3;
//   - p4 maps [24, 48) through both of its mappings, so its own two
//     regions share those pages (refcount 2, one holder).
var oracleLayouts = []spaceLayout{
	{"p1", 64, [][2]int64{{0, 64}}},
	{"p2", 48, [][2]int64{{32, 64}}},
	{"p3", 32, [][2]int64{{16, 64}}},
	{"p4", 16, [][2]int64{{0, 48}, {24, 48}}},
}

func newPairedWorld(src opSource) *pairedWorld {
	w := &pairedWorld{
		real: NewMachine(),
		ref:  &refMachine{},
	}
	if src.Intn(2) == 0 {
		limit := int64(src.Intn(48)) // small enough that sequences fill it
		w.real.SetSwapLimit(limit)
		w.ref.swapLimit = limit
	}

	const filePages = 96
	w.file = w.real.File("libshared.so", filePages*PageSize)
	w.refFile = &refFile{pages: filePages, refs: make([]int32, filePages)}
	for _, l := range oracleLayouts {
		w.spaces = append(w.spaces, w.newSpace(l.label, l))
	}
	return w
}

// newSpace creates a paired address space with the given layout.
func (w *pairedWorld) newSpace(label string, l spaceLayout) *pairedSpace {
	as := w.real.NewAddressSpace(label)
	rs := &refSpace{}
	ps := &pairedSpace{real: as, ref: rs}
	add := func(rr *Region, ref *refRegion) {
		rs.regions = append(rs.regions, ref)
		ps.regions = append(ps.regions, &pairedRegion{real: rr, ref: ref})
	}
	addAnon := func(name string, pages int64) {
		add(as.MmapAnon(name, pages*PageSize), &refRegion{kind: Anon, pages: pages,
			access: true, st: make([]byte, pages), dirty: make([]bool, pages)})
	}
	addAnon("heap", l.anonPages)
	for _, lib := range l.libs {
		foff, flen := lib[0], lib[1]
		add(as.MmapFile("libshared.so", w.file, foff, flen), &refRegion{kind: FileBacked,
			pages: flen, file: w.refFile, foff: foff, access: true,
			st: make([]byte, flen), dirty: make([]bool, flen)})
	}
	addAnon("arena", l.anonPages/2)
	return ps
}

// recreate destroys space k and puts a fresh space with the same
// layout (and a new ID) in its place.
func (w *pairedWorld) recreate(k int) {
	ps := w.spaces[k]
	w.real.Destroy(ps.real)
	for _, r := range ps.ref.regions {
		w.ref.release(r, 0, r.pages)
	}
	w.spaces[k] = w.newSpace(ps.real.Label()+"'", oracleLayouts[k])
}

// check compares every observable between the two implementations.
func (w *pairedWorld) check(t *testing.T, id string, step int, opName string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s step %d (%s): "+format,
			append([]any{id, step, opName}, args...)...)
	}
	if got, want := w.real.PhysPages(), w.ref.phys; got != want {
		fail("machine phys pages = %d, reference %d", got, want)
	}
	if got, want := w.real.SwapPages(), w.ref.swap; got != want {
		fail("machine swap pages = %d, reference %d", got, want)
	}
	if got, want := w.real.PageCounters(), w.ref.counters; got != want {
		fail("machine counters = %+v, reference %+v", got, want)
	}
	for _, ps := range w.spaces {
		label := ps.real.Label()
		if got, want := ps.real.MinorFaults(), ps.ref.minor; got != want {
			fail("%s minor faults = %d, reference %d", label, got, want)
		}
		if got, want := ps.real.MajorFaults(), ps.ref.major; got != want {
			fail("%s major faults = %d, reference %d", label, got, want)
		}
		ps.drained += ps.real.DrainFaultCost()
		if got, want := ps.drained, ps.ref.faultCost; got != want {
			fail("%s fault cost = %dµs, reference %dµs", label, got, want)
		}
		want := ps.ref.usage()
		if got := ps.real.Usage(); got != want {
			fail("%s usage = %+v, reference %+v", label, got, want)
		}
		if got := ps.real.USS(); got != want.USS {
			fail("%s USS counter = %d, reference %d", label, got, want.USS)
		}
		for _, pr := range ps.regions {
			name := pr.real.Name
			if got, want := RegionUsage(pr.real), pr.ref.usage(); got != want {
				fail("%s/%s usage = %+v, reference %+v", label, name, got, want)
			}
			if got, want := pr.real.ResidentPages(), pr.ref.residentPages(); got != want {
				fail("%s/%s resident = %d, reference %d", label, name, got, want)
			}
			if got, want := pr.real.SwappedPages(), pr.ref.swappedPages(); got != want {
				fail("%s/%s swapped = %d, reference %d", label, name, got, want)
			}
			if got, want := pr.real.SharesResidentPages(), pr.ref.sharedResidentPages() > 0; got != want {
				fail("%s/%s shares resident pages = %v, reference %v", label, name, got, want)
			}
			if got, want := pr.real.ResidentBytesIn(0, pr.real.Pages()),
				pr.ref.residentPages()*PageSize; got != want {
				fail("%s/%s ResidentBytesIn = %d, reference %d", label, name, got, want)
			}
		}
	}
	if bad := w.real.Audit(); len(bad) != 0 {
		fail("audit failed: %v", bad)
	}
}

// randomRuns builds 1-4 in-bounds byte runs via AppendRun, biased
// toward partial-page offsets and lengths.
func randomRuns(rng opSource, bytes int64) []Run {
	var runs []Run
	for k := 1 + rng.Intn(4); k > 0; k-- {
		off := rng.Int63n(bytes)
		n := 1 + rng.Int63n(bytes-off)
		runs = AppendRun(runs, off, n)
	}
	return runs
}

// TestOracleRandomOps drives ~1k seeded random op sequences through
// both implementations, checking the full observable surface after
// every op.
func TestOracleRandomOps(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	for i := 0; i < sequences; i++ {
		runOracleSequence(t, int64(1_000_000+i))
	}
}

func runOracleSequence(t *testing.T, seed int64) {
	runOracleOps(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)), 30)
}

// FuzzOracleOps decodes each input into an op sequence over the
// paired world (see byteSource) and checks the full observable
// surface after every op. The seed corpus is the byte streams of a
// few runOracleSequence seeds; crashers found by
// `go test -run '^$' -fuzz FuzzOracleOps ./internal/osmem` belong
// under testdata/fuzz/FuzzOracleOps as regression seeds.
func FuzzOracleOps(f *testing.F) {
	for _, seed := range []int64{1_000_000, 1_000_001, 1_000_002, 1_000_003} {
		b := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := len(data) / 8
		if steps > 64 {
			steps = 64
		}
		runOracleOps(t, "fuzz input", &byteSource{data: data}, steps)
	})
}

// runOracleOps applies steps random ops drawn from rng to a fresh
// paired world, checking after every op; id names the sequence in
// failures.
func runOracleOps(t *testing.T, id string, rng opSource, steps int) {
	w := newPairedWorld(rng)
	w.check(t, id, -1, "setup")

	for step := 0; step < steps; step++ {
		k := rng.Intn(len(w.spaces))
		ps := w.spaces[k]
		pr := ps.regions[rng.Intn(len(ps.regions))]
		r, ref := pr.real, pr.ref
		pages := ref.pages
		bytes := pages * PageSize
		page := rng.Int63n(pages)
		n := rng.Int63n(pages - page + 1)
		write := rng.Intn(2) == 0

		op := rng.Intn(13)
		if !ref.access && (op <= 1 || op == 7) {
			op = 10 // touching PROT_NONE segfaults; re-enable instead
		}
		var opName string
		switch op {
		case 0:
			opName = "Touch"
			r.Touch(page, n, write)
			w.ref.touch(ps.ref, ref, page, n, write)
		case 1:
			opName = "TouchBytes"
			off := rng.Int63n(bytes)
			bn := rng.Int63n(bytes - off + 1)
			r.TouchBytes(off, bn, write)
			w.ref.touchBytes(ps.ref, ref, off, bn, write)
		case 2:
			opName = "Release"
			r.Release(page, n)
			w.ref.release(ref, page, n)
		case 3:
			opName = "ReleaseBytes"
			off := rng.Int63n(bytes)
			bn := rng.Int63n(bytes - off + 1)
			r.ReleaseBytes(off, bn)
			w.ref.releaseBytes(ref, off, bn)
		case 4:
			opName = "ReleaseRuns"
			runs := randomRuns(rng, bytes)
			r.ReleaseRuns(runs)
			for _, run := range runs {
				w.ref.releaseBytes(ref, run.Off, run.Len)
			}
		case 5:
			opName = "SwapOutUpTo(n)"
			got := r.SwapOutUpTo(page, n, n)
			want := w.ref.swapOutUpTo(ref, page, n, n)
			if got != want {
				t.Fatalf("%s step %d: SwapOutUpTo(n) moved %d, reference %d",
					id, step, got, want)
			}
		case 6:
			opName = "SwapOutUpTo"
			max := rng.Int63n(pages + 1)
			got := r.SwapOutUpTo(page, n, max)
			want := w.ref.swapOutUpTo(ref, page, n, max)
			if got != want {
				t.Fatalf("%s step %d: SwapOutUpTo moved %d, reference %d",
					id, step, got, want)
			}
		case 7:
			opName = "FaultInUpTo"
			max := rng.Int63n(pages + 1)
			got := r.FaultInUpTo(page, n, max)
			want := w.ref.faultInUpTo(ps.ref, ref, page, n, max)
			if got != want {
				t.Fatalf("%s step %d: FaultInUpTo faulted %d, reference %d",
					id, step, got, want)
			}
		case 8:
			opName = "ReleaseClean"
			if ref.kind != FileBacked {
				opName = "noop"
				break
			}
			got := r.ReleaseClean()
			want := w.ref.releaseClean(ref)
			if got != want {
				t.Fatalf("%s step %d: ReleaseClean released %d, reference %d",
					id, step, got, want)
			}
		case 9:
			opName = "ProtectNone"
			r.ProtectNone()
			w.ref.protectNone(ref)
		case 10:
			opName = "ProtectRW"
			r.ProtectRW()
			ref.access = true
		case 11:
			// The audit treats occupancy above the limit as drift, so
			// stay on the legal side: unlimited, or at least the
			// current occupancy (the chaos layer does the same).
			opName = "SetSwapLimit"
			limit := int64(rng.Intn(64))
			if limit != 0 && limit < w.ref.swap {
				limit = w.ref.swap
			}
			w.real.SetSwapLimit(limit)
			w.ref.swapLimit = limit
		case 12:
			opName = "DestroyAndRecreate"
			w.recreate(k)
		}
		w.check(t, id, step, opName)
	}
}

// TestAddRepMatchesNaive differentially checks the binade-jumping
// repeated-add against the naive accumulation loop it replaces, over
// the PSS quotients the accounting scan actually produces (PageSize
// divided by small refcounts) plus adversarial magnitudes where the
// addend is at or below the accumulator's ulp.
func TestAddRepMatchesNaive(t *testing.T) {
	naive := func(acc, q float64, c int64) float64 {
		for i := int64(0); i < c; i++ {
			acc += q
		}
		return acc
	}
	check := func(acc, q float64, c int64) {
		t.Helper()
		got, want := addRep(acc, q, c), naive(acc, q, c)
		if got != want {
			t.Fatalf("addRep(%v, %v, %d) = %v, naive loop = %v", acc, q, c, got, want)
		}
	}

	for _, rc := range []int32{1, 2, 3, 5, 7, 16, 37, 100, 333, 4096, 5000} {
		q := float64(PageSize) / float64(rc)
		for _, acc := range []float64{0, 4096, 1e6, 123456789.25, 1e15, 1e16, 4.5e15} {
			for _, c := range []int64{0, 1, 2, 3, 100, 4095, 4096, 20000} {
				check(acc, q, c)
			}
		}
	}

	// Accumulators so large the addend partially or fully rounds away,
	// including exact half-ulp ties where rounding alternates by parity.
	for _, q := range []float64{1, 1365.3333333333333, 4096} {
		for _, e := range []int64{1 << 50, 1 << 52, 1 << 53, (1 << 53) + 2} {
			for _, c := range []int64{1, 2, 3, 1000} {
				check(float64(e), q, c)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		rc := rng.Int31n(6000) + 1
		q := float64(PageSize) / float64(rc)
		acc := rng.Float64() * float64(int64(1)<<uint(rng.Intn(55)))
		c := rng.Int63n(30000)
		check(acc, q, c)
	}
}
