package mm

import (
	"testing"
	"testing/quick"

	"desiccant/internal/osmem"
	"desiccant/internal/sim"
)

func newSpace(t *testing.T, capPages int64) (*osmem.Machine, *BumpSpace) {
	t.Helper()
	m := osmem.NewMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", capPages*osmem.PageSize)
	return m, NewBumpSpace("eden", r, 0, capPages*osmem.PageSize)
}

func TestObjectBasics(t *testing.T) {
	o := &Object{Size: 100}
	if o.Collectible(false) {
		t.Fatal("live object collectible")
	}
	o.Weak = true
	if o.Collectible(false) {
		t.Fatal("weak object collected by normal GC")
	}
	if !o.Collectible(true) {
		t.Fatal("weak object survived aggressive GC")
	}
	o.Dead = true
	if !o.Collectible(false) {
		t.Fatal("dead object not collectible")
	}
	if o.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLiveDeadBytes(t *testing.T) {
	objs := []*Object{
		{Size: 10}, {Size: 20, Dead: true}, {Size: 30}, {Size: 40, Dead: true},
	}
	if LiveBytes(objs) != 40 {
		t.Fatalf("LiveBytes: %d", LiveBytes(objs))
	}
	if DeadBytes(objs) != 60 {
		t.Fatalf("DeadBytes: %d", DeadBytes(objs))
	}
}

func TestBumpAllocate(t *testing.T) {
	m, s := newSpace(t, 4)
	a := &Object{Size: 3000}
	b := &Object{Size: 3000}
	if !s.TryAllocate(a) || !s.TryAllocate(b) {
		t.Fatal("allocation failed")
	}
	if a.Offset != 0 || b.Offset != 3000 {
		t.Fatalf("offsets: %d %d", a.Offset, b.Offset)
	}
	if s.Used() != 6000 || s.Free() != 4*osmem.PageSize-6000 {
		t.Fatalf("used=%d free=%d", s.Used(), s.Free())
	}
	// 6000 bytes spans pages 0 and 1.
	if m.PhysPages() != 2 {
		t.Fatalf("phys pages: %d", m.PhysPages())
	}
	// Overflow allocation leaves the space untouched.
	big := &Object{Size: 4 * osmem.PageSize}
	if s.TryAllocate(big) {
		t.Fatal("overflow allocation succeeded")
	}
	if s.Used() != 6000 || len(s.Objects()) != 2 {
		t.Fatal("failed allocation mutated space")
	}
}

func TestResetKeepsPagesResident(t *testing.T) {
	m, s := newSpace(t, 8)
	s.TryAllocate(&Object{Size: 8 * osmem.PageSize})
	if m.PhysPages() != 8 {
		t.Fatalf("phys: %d", m.PhysPages())
	}
	s.Reset()
	if s.Used() != 0 || len(s.Objects()) != 0 {
		t.Fatal("reset incomplete")
	}
	// The frozen-garbage mechanism: reset does NOT release pages.
	if m.PhysPages() != 8 {
		t.Fatalf("reset released pages: %d", m.PhysPages())
	}
}

func TestReleaseFreeTail(t *testing.T) {
	m, s := newSpace(t, 8)
	s.TryAllocate(&Object{Size: osmem.PageSize + 100}) // touches pages 0,1
	s.TryAllocate(&Object{Size: 6 * osmem.PageSize})   // touches up past page 7
	s.Objects()[1].Dead = true
	// Simulate a sweep: drop the dead tail object manually.
	objs := append([]*Object(nil), s.Objects()...)
	if !s.Relocate(objs[:1]) {
		t.Fatal("relocate failed")
	}
	s.ReleaseFreeTail()
	// Live bytes = PageSize+100 → pages 0,1 stay; the rest released.
	if m.PhysPages() != 2 {
		t.Fatalf("phys after release: %d", m.PhysPages())
	}
	if s.LiveBytes() != osmem.PageSize+100 {
		t.Fatalf("live: %d", s.LiveBytes())
	}
}

func TestReleaseAll(t *testing.T) {
	m, s := newSpace(t, 8)
	s.TryAllocate(&Object{Size: 5 * osmem.PageSize})
	s.Reset()
	s.ReleaseAll()
	if m.PhysPages() != 0 {
		t.Fatalf("phys: %d", m.PhysPages())
	}
	s.TryAllocate(&Object{Size: 100})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReleaseAll on non-empty space did not panic")
			}
		}()
		s.ReleaseAll()
	}()
}

func TestRelocateCompacts(t *testing.T) {
	_, s := newSpace(t, 16)
	var objs []*Object
	for i := 0; i < 8; i++ {
		o := &Object{Size: osmem.PageSize}
		s.TryAllocate(o)
		objs = append(objs, o)
	}
	// Keep the odd ones.
	var keep []*Object
	for i, o := range objs {
		if i%2 == 1 {
			keep = append(keep, o)
		}
	}
	if !s.Relocate(keep) {
		t.Fatal("relocate failed")
	}
	if s.Used() != 4*osmem.PageSize {
		t.Fatalf("used after compaction: %d", s.Used())
	}
	for i, o := range keep {
		if o.Offset != int64(i)*osmem.PageSize {
			t.Fatalf("object %d not compacted: offset %d", i, o.Offset)
		}
	}
	// Relocate that doesn't fit reports false.
	tiny := NewBumpSpace("tiny", s.Region(), 0, osmem.PageSize)
	if tiny.Relocate(keep) {
		t.Fatal("oversized relocate succeeded")
	}
}

func TestSetCapacity(t *testing.T) {
	_, s := newSpace(t, 8)
	s.TryAllocate(&Object{Size: 2 * osmem.PageSize})
	s.SetCapacity(4 * osmem.PageSize)
	if s.Capacity() != 4*osmem.PageSize {
		t.Fatalf("capacity: %d", s.Capacity())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shrink below used did not panic")
			}
		}()
		s.SetCapacity(osmem.PageSize)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("grow beyond region did not panic")
			}
		}()
		s.SetCapacity(100 * osmem.PageSize)
	}()
}

func TestResidentBytes(t *testing.T) {
	m, s := newSpace(t, 8)
	s.TryAllocate(&Object{Size: 3*osmem.PageSize + 10})
	if got := s.ResidentBytes(); got != 4*osmem.PageSize {
		t.Fatalf("ResidentBytes: %d", got)
	}
	_ = m
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSpaceOutOfRegionPanics(t *testing.T) {
	m := osmem.NewMachine()
	as := m.NewAddressSpace("p")
	r := as.MmapAnon("heap", 4*osmem.PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBumpSpace("bad", r, 2*osmem.PageSize, 3*osmem.PageSize)
}

func TestGCCostModel(t *testing.T) {
	zero := GCCycle(0, 0, 0)
	if zero != gcFixed {
		t.Fatalf("zero-work cycle: %v", zero)
	}
	one := GCCycle(1<<20, 1<<20, 1<<20)
	want := gcFixed + gcTracePerMB + gcCopyPerMB + gcSweepPerMB
	if one != want {
		t.Fatalf("1MB cycle: %v want %v", one, want)
	}
	// Cost is monotone in each dimension.
	if GCCycle(2<<20, 0, 0) <= GCCycle(1<<20, 0, 0) {
		t.Fatal("trace cost not monotone")
	}
}

// Property: allocation preserves the used-bytes = sum-of-sizes
// invariant and never over-commits capacity.
func TestBumpSpaceInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := osmem.NewMachine()
		as := m.NewAddressSpace("p")
		r := as.MmapAnon("heap", 64*osmem.PageSize)
		s := NewBumpSpace("s", r, 0, 64*osmem.PageSize)
		var want int64
		for _, sz := range sizes {
			o := &Object{Size: int64(sz) + 1}
			if s.TryAllocate(o) {
				want += o.Size
			}
		}
		var got int64
		for _, o := range s.Objects() {
			got += o.Size
		}
		return got == want && s.Used() == want && s.Used() <= s.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var _ = sim.Second // keep the sim import honest if the cost test changes
