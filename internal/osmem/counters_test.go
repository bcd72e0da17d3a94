package osmem

import "testing"

func TestPageCountersTrackFlows(t *testing.T) {
	m := newTestMachine()
	as := m.NewAddressSpace("counters")
	r := as.MmapAnon("heap", 10*PageSize)

	if c := m.PageCounters(); c != (PageCounters{}) {
		t.Fatalf("fresh machine has counters %+v", c)
	}

	r.Touch(0, 10, true)
	c := m.PageCounters()
	if c.Commits != 10 {
		t.Fatalf("Commits = %d, want 10", c.Commits)
	}

	// Re-touching resident pages commits nothing new.
	r.Touch(0, 10, true)
	if c = m.PageCounters(); c.Commits != 10 {
		t.Fatalf("Commits after re-touch = %d, want 10", c.Commits)
	}

	r.Release(0, 4)
	if c = m.PageCounters(); c.Releases != 4 {
		t.Fatalf("Releases = %d, want 4", c.Releases)
	}

	r.SwapOutUpTo(4, 3, 3)
	if c = m.PageCounters(); c.SwapOuts != 3 {
		t.Fatalf("SwapOuts = %d, want 3", c.SwapOuts)
	}

	// Touching a swapped page is a major fault: swap-in plus commit.
	r.Touch(4, 1, false)
	c = m.PageCounters()
	if c.SwapIns != 1 {
		t.Fatalf("SwapIns = %d, want 1", c.SwapIns)
	}
	if c.Commits != 11 {
		t.Fatalf("Commits after swap-in = %d, want 11", c.Commits)
	}

	// Counters are flows, not levels: releasing everything leaves the
	// historical commits in place.
	as2 := m.NewAddressSpace("other")
	f := m.File("lib.so", 2*PageSize)
	fr := as2.MmapFile("lib.so", f, 0, 2)
	fr.Touch(0, 2, false)
	if released := fr.ReleaseClean(); released != 2*PageSize {
		t.Fatalf("ReleaseClean = %d", released)
	}
	c = m.PageCounters()
	if c.Commits != 13 || c.Releases < 6 {
		t.Fatalf("after file drop: %+v", c)
	}
}
