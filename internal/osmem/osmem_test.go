package osmem

import (
	"fmt"
	"runtime/debug"
	"testing"
	"testing/quick"
)

func newTestMachine() *Machine { return NewMachine() }

func TestPagesFor(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {10 * PageSize, 10},
	}
	for _, c := range cases {
		if got := PagesFor(c.bytes); got != c.want {
			t.Errorf("PagesFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestPagesForNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PagesFor(-1)
}

func TestAnonLifecycle(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p1")
	r := as.MmapAnon("heap", 64*PageSize)

	if r.ResidentPages() != 0 || as.USS() != 0 {
		t.Fatal("fresh mapping should be empty")
	}
	r.Touch(0, 16, true)
	if got := r.ResidentPages(); got != 16 {
		t.Fatalf("resident after touch: %d", got)
	}
	if got := as.USS(); got != 16*PageSize {
		t.Fatalf("USS: %d", got)
	}
	if m.PhysPages() != 16 {
		t.Fatalf("machine phys: %d", m.PhysPages())
	}
	// Re-touch is free (no new faults).
	before := as.MinorFaults()
	r.Touch(0, 16, true)
	if as.MinorFaults() != before {
		t.Fatal("re-touch faulted")
	}

	r.Release(0, 8)
	if got := r.ResidentPages(); got != 8 {
		t.Fatalf("resident after release: %d", got)
	}
	if m.PhysPages() != 8 {
		t.Fatalf("machine phys after release: %d", m.PhysPages())
	}
	// Touch after release faults again.
	r.Touch(0, 8, true)
	if as.MinorFaults() != before+8 {
		t.Fatalf("minor faults: %d, want %d", as.MinorFaults(), before+8)
	}
}

func TestTouchBytesRoundsOutward(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 16*PageSize)
	// 1 byte spanning into the second page.
	r.TouchBytes(PageSize-1, 2, true)
	if got := r.ResidentPages(); got != 2 {
		t.Fatalf("resident: %d, want 2", got)
	}
	r.TouchBytes(0, 0, true) // no-op
	if got := r.ResidentPages(); got != 2 {
		t.Fatalf("zero-length touch changed residency: %d", got)
	}
}

func TestReleaseBytesRoundsInward(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 16*PageSize)
	r.Touch(0, 16, true)

	// Range [100, 3*PageSize+100): only fully-contained pages 1 and 2
	// can be released; partial pages at both ends must stay.
	r.ReleaseBytes(100, 3*PageSize)
	if got := r.ResidentPages(); got != 14 {
		t.Fatalf("resident: %d, want 14", got)
	}
	// A sub-page range releases nothing.
	r.ReleaseBytes(5*PageSize+1, PageSize-2)
	if got := r.ResidentPages(); got != 14 {
		t.Fatalf("sub-page release freed something: %d", got)
	}
}

func TestProtectNone(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap-tail", 8*PageSize)
	r.Touch(0, 8, true)
	r.ProtectNone()
	if r.ResidentPages() != 0 {
		t.Fatal("PROT_NONE did not clear physical pages")
	}
	if r.Accessible() {
		t.Fatal("region still accessible")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("touch of PROT_NONE region did not segfault")
			}
		}()
		r.Touch(0, 1, true)
	}()
	r.ProtectRW()
	r.Touch(0, 1, true)
	if r.ResidentPages() != 1 {
		t.Fatal("re-protected region not usable")
	}
}

func TestFileSharingAccounting(t *testing.T) {
	m := newTestMachine()
	lib := m.File("libjvm.so", 100*PageSize)

	as1 := m.NewAddressSpace("c1")
	r1 := as1.MmapFile("libjvm.so", lib, 0, 100)
	r1.Touch(0, 100, false)

	u1 := as1.Usage()
	if u1.USS != 100*PageSize {
		t.Fatalf("single-mapper USS: %d", u1.USS)
	}
	if u1.PrivateClean != 100*PageSize || u1.PrivateDirty != 0 {
		t.Fatalf("single-mapper private split: clean=%d dirty=%d", u1.PrivateClean, u1.PrivateDirty)
	}

	as2 := m.NewAddressSpace("c2")
	r2 := as2.MmapFile("libjvm.so", lib, 0, 100)
	r2.Touch(0, 100, false)

	u1 = as1.Usage()
	u2 := as2.Usage()
	if u1.USS != 0 || u2.USS != 0 {
		t.Fatalf("shared pages leaked into USS: %d %d", u1.USS, u2.USS)
	}
	if u1.RSS != 100*PageSize {
		t.Fatalf("RSS must still count shared pages: %d", u1.RSS)
	}
	wantPSS := float64(50 * PageSize)
	if u1.PSS != wantPSS || u2.PSS != wantPSS {
		t.Fatalf("PSS: %v %v, want %v", u1.PSS, u2.PSS, wantPSS)
	}

	// Second mapper's touches were page-cache hits (minor), first
	// mapper's were disk reads (major).
	if as1.MajorFaults() != 100 {
		t.Fatalf("first mapper major faults: %d", as1.MajorFaults())
	}
	if as2.MajorFaults() != 0 || as2.MinorFaults() != 100 {
		t.Fatalf("second mapper faults: major=%d minor=%d", as2.MajorFaults(), as2.MinorFaults())
	}

	// Unmap the second: pages become private to the first again.
	as2.Unmap(r2)
	if got := as1.USS(); got != 100*PageSize {
		t.Fatalf("USS after co-mapper unmap: %d", got)
	}

	// The O(1) USS counter must follow every 1→2 and 2→1 transition:
	// c1 holds all 10 pages of a library, a co-mapper c2 shares the
	// first 4 and gives them back through each path that drops a
	// file page.
	t.Run("transitions", func(t *testing.T) {
		m := newTestMachine()
		lib := m.File("libnode.so", 10*PageSize)
		as1 := m.NewAddressSpace("c1")
		as1.MmapFile("libnode.so", lib, 0, 10).Touch(0, 10, false)
		as2 := m.NewAddressSpace("c2")
		r2 := as2.MmapFile("libnode.so", lib, 0, 4)
		wantUSS := func(step string, p1, p2 int64) {
			t.Helper()
			for _, c := range []struct {
				as    *AddressSpace
				pages int64
			}{{as1, p1}, {as2, p2}} {
				if got := c.as.USS(); got != c.pages*PageSize || got != c.as.Usage().USS {
					t.Fatalf("%s: %s USS = %d, want %d (smaps %d)",
						step, c.as.Label(), got, c.pages*PageSize, c.as.Usage().USS)
				}
			}
			if bad := m.Audit(); len(bad) != 0 {
				t.Fatalf("%s: audit: %v", step, bad)
			}
		}
		wantUSS("single mapper", 10, 0)
		r2.Touch(0, 4, false)
		wantUSS("touch 1→2", 6, 0)

		// Clean pages drop on swap-out; dirty ones move to swap.
		r2.SwapOutUpTo(0, 4, 4)
		wantUSS("clean swap-out 2→1", 10, 0)
		r2.Touch(0, 4, true)
		wantUSS("write touch 1→2", 6, 0)
		if moved := r2.SwapOutUpTo(0, 4, 4); moved != 4 {
			t.Fatalf("dirty swap-out moved %d pages, want 4", moved)
		}
		wantUSS("dirty swap-out 2→1", 10, 0)
		r2.Touch(0, 2, false)
		wantUSS("swap-in 1→2", 8, 0)
		r2.Release(0, 4)
		wantUSS("release 2→1", 10, 0)

		r2.Touch(0, 4, false)
		if released := r2.ReleaseClean(); released != 4*PageSize {
			t.Fatalf("ReleaseClean released %d", released)
		}
		wantUSS("ReleaseClean 2→1", 10, 0)

		r2.Touch(0, 4, false)
		r2.ProtectNone()
		wantUSS("ProtectNone 2→1", 10, 0)
		r2.ProtectRW()

		r2.Touch(0, 4, false)
		wantUSS("retouch 1→2", 6, 0)
		m.Destroy(as2)
		wantUSS("Destroy 2→1", 10, 0)
	})
}

func TestFileDirtyPagesArePrivateDirty(t *testing.T) {
	m := newTestMachine()
	lib := m.File("node", 10*PageSize)
	as := m.NewAddressSpace("c")
	r := as.MmapFile("node", lib, 0, 10)
	r.Touch(0, 10, false)
	r.Touch(0, 3, true) // write-relocate 3 pages
	u := as.Usage()
	if u.PrivateDirty != 3*PageSize || u.PrivateClean != 7*PageSize {
		t.Fatalf("dirty split: dirty=%d clean=%d", u.PrivateDirty, u.PrivateClean)
	}
}

func TestFileGrow(t *testing.T) {
	m := newTestMachine()
	f := m.File("lib.so", 10*PageSize)
	f2 := m.File("lib.so", 20*PageSize)
	if f != f2 {
		t.Fatal("File did not dedupe by name")
	}
	if f.Pages != 20 {
		t.Fatalf("file did not grow: %d", f.Pages)
	}
	if len(m.Files()) != 1 || m.Files()[0] != "lib.so" {
		t.Fatalf("Files: %v", m.Files())
	}
}

func TestSwapOutAndBack(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 32*PageSize)
	r.Touch(0, 32, true)
	as.DrainFaultCost()

	r.SwapOutUpTo(0, 32, 32)
	if r.ResidentPages() != 0 || r.SwappedPages() != 32 {
		t.Fatalf("swap state: res=%d swap=%d", r.ResidentPages(), r.SwappedPages())
	}
	if m.SwapPages() != 32 || m.PhysPages() != 0 {
		t.Fatalf("machine: swap=%d phys=%d", m.SwapPages(), m.PhysPages())
	}
	u := as.Usage()
	if u.USS != 0 || u.Swap != 32*PageSize {
		t.Fatalf("usage: %v", u)
	}

	r.Touch(0, 32, true)
	if as.MajorFaults() != 32 {
		t.Fatalf("swap-in major faults: %d", as.MajorFaults())
	}
	cost := as.DrainFaultCost()
	if cost != 32*majorFaultCost {
		t.Fatalf("swap-in cost: %d", cost)
	}
	if m.SwapPages() != 0 {
		t.Fatalf("swap not drained: %d", m.SwapPages())
	}
}

// TestReleaseRunsKeepsUnalignedJoins checks that two runs meeting
// inside a page stay two runs, so ReleaseRuns keeps the page they
// share, as the two ReleaseBytes calls would: each rounds inward.
func TestReleaseRunsKeepsUnalignedJoins(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 4*PageSize)
	r.Touch(0, 4, true)
	runs := AppendRun(AppendRun(nil, 0, PageSize+100), PageSize+100, PageSize-100)
	if len(runs) != 2 {
		t.Fatalf("runs %v merged across an unaligned join", runs)
	}
	r.ReleaseRuns(runs)
	if got := r.ResidentPages(); got != 3 {
		t.Fatalf("resident pages %d after ReleaseRuns, want 3 (only page 0 released)", got)
	}
}

// TestMachineString pins the machine summary in MiB: 3 MiB resident
// and 2 MiB on swap, so a page count printed as bytes (or the reverse)
// shows.
func TestMachineString(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 5<<20)
	r.Touch(0, r.Pages(), true)
	r.SwapOutUpTo(0, (2<<20)/PageSize, (2<<20)/PageSize)
	m.File("lib.so", PageSize)
	want := "machine{phys=3MB swap=2MB spaces=1 files=1}"
	if got := m.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestSwapOutFileCleanDrops(t *testing.T) {
	m := newTestMachine()
	lib := m.File("lib.so", 8*PageSize)
	as := m.NewAddressSpace("p")
	r := as.MmapFile("lib.so", lib, 0, 8)
	r.Touch(0, 8, false)
	r.SwapOutUpTo(0, 8, 8)
	// Clean file pages are dropped, not written to swap.
	if m.SwapPages() != 0 {
		t.Fatalf("clean file pages went to swap: %d", m.SwapPages())
	}
	if r.ResidentPages() != 0 {
		t.Fatal("pages still resident")
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	m := newTestMachine()
	lib := m.File("lib.so", 10*PageSize)
	as := m.NewAddressSpace("p")
	h := as.MmapAnon("heap", 20*PageSize)
	h.Touch(0, 20, true)
	l := as.MmapFile("lib.so", lib, 0, 10)
	l.Touch(0, 10, false)
	h.SwapOutUpTo(0, 5, 5)

	m.Destroy(as)
	if m.PhysPages() != 0 || m.SwapPages() != 0 {
		t.Fatalf("leak after destroy: phys=%d swap=%d", m.PhysPages(), m.SwapPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("use after destroy did not panic")
			}
		}()
		as.MmapAnon("x", PageSize)
	}()
}

func TestPmapRange(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 100*PageSize)
	r.Touch(10, 20, true) // pages 10..29 resident

	got := as.PmapRange(r.VA, r.Bytes())
	if got != 20*PageSize {
		t.Fatalf("full-range pmap: %d", got)
	}
	// Window covering pages 0..14 → 5 resident.
	got = as.PmapRange(r.VA, 15*PageSize)
	if got != 5*PageSize {
		t.Fatalf("window pmap: %d", got)
	}
	// Disjoint window.
	if got := as.PmapRange(r.End()+PageSize, 10*PageSize); got != 0 {
		t.Fatalf("disjoint pmap: %d", got)
	}
}

func TestSmapsAndFormat(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	h := as.MmapAnon("heap", 10*PageSize)
	h.Touch(0, 4, true)
	lib := m.File("lib.so", 6*PageSize)
	l := as.MmapFile("lib.so", lib, 0, 6)
	l.Touch(0, 6, false)

	entries := as.Smaps()
	if len(entries) != 2 {
		t.Fatalf("smaps entries: %d", len(entries))
	}
	if entries[0].Region.VA > entries[1].Region.VA {
		t.Fatal("smaps not sorted by VA")
	}
	var total int64
	for _, e := range entries {
		total += e.Usage.USS
	}
	if total != as.USS() {
		t.Fatalf("smaps USS sum %d != AS USS %d", total, as.USS())
	}
	if s := as.FormatSmaps(); len(s) == 0 {
		t.Fatal("empty smaps text")
	}
	if m.String() == "" {
		t.Fatal("empty machine string")
	}
	if u := as.Usage(); u.String() == "" {
		t.Fatal("empty usage string")
	}
}

func TestRangeChecks(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 4*PageSize)
	for _, fn := range []func(){
		func() { r.Touch(3, 2, true) },
		func() { r.Touch(-1, 1, true) },
		func() { r.Release(0, 5) },
		func() { as.MmapFile("f", m.File("f", PageSize), 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range op did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnmappedRegionUsePanics(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 4*PageSize)
	as.Unmap(r)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Touch(0, 1, true)
}

func TestFindRegion(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	as.MmapAnon("a", PageSize)
	b := as.MmapAnon("b", PageSize)
	if as.FindRegion("b") != b {
		t.Fatal("FindRegion failed")
	}
	if as.FindRegion("zzz") != nil {
		t.Fatal("FindRegion invented a region")
	}
}

// Property: for any sequence of touch/release operations, machine
// physical pages equal the sum of resident pages over all regions, and
// USS ≤ RSS always.
func TestAccountingInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		m := newTestMachine()
		as1 := m.NewAddressSpace("a")
		as2 := m.NewAddressSpace("b")
		lib := m.File("lib.so", 32*PageSize)
		regions := []*Region{
			as1.MmapAnon("h1", 32*PageSize),
			as2.MmapAnon("h2", 32*PageSize),
			as1.MmapFile("lib", lib, 0, 32),
			as2.MmapFile("lib", lib, 0, 32),
		}
		for _, op := range ops {
			r := regions[int(op)%len(regions)]
			page := int64(op>>2) % r.Pages()
			n := int64(1) + int64(op>>7)%4
			if page+n > r.Pages() {
				n = r.Pages() - page
			}
			switch (op >> 12) % 3 {
			case 0:
				r.Touch(page, n, op&1 == 0)
			case 1:
				r.Release(page, n)
			case 2:
				r.SwapOutUpTo(page, n, n)
			}
		}
		var resident int64
		for _, r := range regions {
			resident += r.ResidentPages()
		}
		if resident != m.PhysPages() {
			return false
		}
		for _, as := range []*AddressSpace{as1, as2} {
			u := as.Usage()
			if u.USS > u.RSS {
				return false
			}
			if u.PSS > float64(u.RSS)+1e-6 || float64(u.USS) > u.PSS+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledPageArraysReadClean cycles regions through every page
// array size class — grown page by page, so each growth hands back a
// dirty array, and torn down by Unmap and Destroy with pages resident,
// dirty and swapped — and checks that a region adopting arrays from
// the shared pools, as it grows through the same classes, reads every
// untouched page not-present and clean. The classes run on parallel
// subtests, each on its own machine, sharing the pools the way the
// experiments' worker pool cells do.
func TestRecycledPageArraysReadClean(t *testing.T) {
	for class := 0; class <= 16; class++ {
		t.Run(fmt.Sprintf("class%d", class), func(t *testing.T) {
			t.Parallel()
			checkRecycledPageArrays(t, class)
		})
	}
}

func checkRecycledPageArrays(t *testing.T, class int) {
	m := newTestMachine()
	lib := m.File("lib.so", 1<<16*PageSize)
	for _, pages := range []int64{1 << class, 1<<class - 1, 1<<class + 1} {
		if pages == 0 {
			continue
		}
		dirty := m.NewAddressSpace("dirty")
		anon := dirty.MmapAnon("heap", pages*PageSize)
		file := dirty.MmapFile("lib.so", lib, 0, min(pages, lib.Pages))
		for end := int64(1); ; end *= 2 {
			anon.Touch(0, min(end, pages), true)
			file.Touch(0, min(end, file.Pages()), true)
			if end >= pages {
				break
			}
		}
		anon.SwapOutUpTo(0, pages/2, pages/2)
		dirty.Unmap(file)
		m.Destroy(dirty)

		fresh := m.NewAddressSpace("fresh")
		for _, r := range []*Region{
			fresh.MmapAnon("heap", pages*PageSize),
			fresh.MmapFile("lib.so", lib, 0, min(pages, lib.Pages)),
		} {
			// Touch one page at the end of each doubling, so every
			// growth adopts an array of the next size class.
			touched := map[int64]bool{}
			for end := int64(1); ; end *= 2 {
				last := min(end, r.Pages()) - 1
				r.Touch(last, 1, false)
				touched[last] = true
				for i, b := range r.pb[:cap(r.pb)] {
					if !touched[int64(i)] && b != pageNotPresent {
						t.Fatalf("%d-page %s region grown to %d pages: untouched page %d reads %#x",
							pages, r.Name, len(r.pb), i, b)
					}
				}
				if r.ResidentPages() != int64(len(touched)) || r.SwappedPages() != 0 {
					t.Fatalf("%d-page %s region: %d resident, %d swapped after %d touches",
						pages, r.Name, r.ResidentPages(), r.SwappedPages(), len(touched))
				}
				if end >= r.Pages() {
					break
				}
			}
		}
		m.Destroy(fresh)
	}
	if m.PhysPages() != 0 || m.SwapPages() != 0 {
		t.Fatalf("machine holds %d resident and %d swapped pages after teardown", m.PhysPages(), m.SwapPages())
	}
}

// TestPageArrayRecyclingAllocFree checks that a page array's round trip
// through the pools allocates nothing once they hold an array of each
// size: growing a region's array hands the outgrown one back in the box
// it came in, and so does tearing the region down.
func TestPageArrayRecyclingAllocFree(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops items at random")
			}
		}
	}
	m := newTestMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 1024*PageSize)
	cycle := func() {
		for end := int64(64); end <= r.Pages(); end *= 2 {
			r.ensurePB(end)
		}
		clear(r.pb)
		r.dropPB()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("%.2f allocations per grow-and-drop cycle, want 0", n)
	}
}
