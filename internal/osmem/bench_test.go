package osmem

import "testing"

// The micro-benchmarks model an adjacent-object storm the way the GC
// callers produce one: many coalesced runs with partial-page edges,
// handed to the bulk entry points in one call. The bulk paths must
// stay allocation-free — TestBulkPathsZeroAllocs guards that, and the
// benches report allocs/op so the tracked baseline catches drift.

const benchPages = 4096 // 16 MiB region

// benchRuns covers the region with 256 unaligned runs separated by
// one-page gaps (so AppendRun keeps them distinct): outward rounding
// touches 15 pages per run, inward rounding releases 13.
func benchRuns() []Run {
	var runs []Run
	for i := int64(0); i < 256; i++ {
		base := i * 16 * PageSize
		runs = AppendRun(runs, base+100, 15*PageSize-200)
	}
	return runs
}

func BenchmarkReleaseRuns(b *testing.B) {
	m := NewMachine()
	as := m.NewAddressSpace("bench")
	r := as.MmapAnon("heap", benchPages*PageSize)
	runs := benchRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Touch(0, benchPages, true)
		r.ReleaseRuns(runs)
	}
}

// libPages is the node binary's image (42 MiB), and libTouched the
// share of it a runtime reads at startup, as a cold boot maps them.
const (
	libPages   = 42 << 20 / PageSize
	libTouched = libPages * 55 / 100
)

// BenchmarkLibraryTouch is the library half of a cold boot: map the
// runtime image and read its startup share, half of it already in the
// page cache through a co-mapper. The teardown is untimed.
func BenchmarkLibraryTouch(b *testing.B) {
	m := NewMachine()
	lib := m.File("node", libPages*PageSize)
	m.NewAddressSpace("co-mapper").MmapFile("node", lib, 0, libPages).Touch(0, libTouched/2, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		as := m.NewAddressSpace("boot")
		as.MmapFile("node", lib, 0, libPages).Touch(0, libTouched, false)
		b.StopTimer()
		m.Destroy(as)
		b.StartTimer()
	}
}

// BenchmarkUnmap is the teardown half: unmap a library mapping and a
// heap reservation whose first 16 MiB are resident. The set-up is
// untimed.
func BenchmarkUnmap(b *testing.B) {
	m := NewMachine()
	lib := m.File("node", libPages*PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		as := m.NewAddressSpace("boot")
		file := as.MmapFile("node", lib, 0, libPages)
		file.Touch(0, libTouched, false)
		heap := as.MmapAnon("heap", 256<<20)
		heap.Touch(0, benchPages, true)
		b.StartTimer()
		as.Unmap(file)
		as.Unmap(heap)
	}
}

// TestBulkPathsZeroAllocs pins the allocation-free contract of every
// bulk fast path: a GC phase calling them must not generate garbage in
// the simulator while simulating garbage collection.
func TestBulkPathsZeroAllocs(t *testing.T) {
	m := NewMachine()
	as := m.NewAddressSpace("guard")
	r := as.MmapAnon("heap", benchPages*PageSize)
	runs := benchRuns()

	// A library both spaces map whole: with the co-mapper holding every
	// page, each op on fa moves pages across refcount 1↔2, so ref and
	// unref hand USS credit between the two spaces on every call.
	const libPages = 512
	lib := m.File("libshared.so", libPages*PageSize)
	fa := as.MmapFile("libshared.so", lib, 0, libPages)
	co := m.NewAddressSpace("co-mapper")
	co.MmapFile("libshared.so", lib, 0, libPages).Touch(0, libPages, false)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Touch+ReleaseRuns", func() {
			r.Touch(0, benchPages, true)
			r.ReleaseRuns(runs)
		}},
		{"Touch+Release", func() {
			r.Touch(0, benchPages, true)
			r.Release(0, benchPages)
		}},
		{"SwapOutUpTo+FaultInUpTo", func() {
			r.Touch(0, 512, true)
			r.SwapOutUpTo(0, 512, 512)
			r.FaultInUpTo(0, 512, 512)
			r.Release(0, 512)
		}},
		{"ResidentBytesIn", func() {
			_ = r.ResidentBytesIn(0, benchPages)
		}},
		{"shared Touch+Release", func() {
			fa.Touch(0, libPages, false)
			fa.Release(0, libPages)
		}},
		{"shared SwapOutUpTo+FaultInUpTo", func() {
			fa.Touch(0, libPages, true)
			fa.SwapOutUpTo(0, libPages, libPages)
			fa.FaultInUpTo(0, libPages, libPages)
			fa.Release(0, libPages)
		}},
		{"shared ReleaseClean", func() {
			fa.Touch(0, libPages, false)
			fa.ReleaseClean()
		}},
		{"USS", func() {
			_ = as.USS() + co.USS()
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(20, c.fn); allocs != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", c.name, allocs)
		}
	}

	// AppendRun must stay in place when the caller's scratch buffer has
	// capacity — the pattern every converted GC phase relies on.
	scratch := make([]Run, 0, 8)
	if allocs := testing.AllocsPerRun(20, func() {
		rs := scratch[:0]
		rs = AppendRun(rs, 0, PageSize)
		rs = AppendRun(rs, PageSize, PageSize) // merges
		rs = AppendRun(rs, 3*PageSize, PageSize)
		scratch = rs[:0]
	}); allocs != 0 {
		t.Errorf("AppendRun with capacity: %.0f allocs/op, want 0", allocs)
	}
}
