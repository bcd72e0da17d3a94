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
	return m, NewBumpSpace("eden", new(ObjectPool), r, 0, capPages*osmem.PageSize)
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
	p := new(ObjectPool)
	var objs []Ref
	for i, size := range []int64{10, 20, 30, 40} {
		r := p.New(size, false)
		p.At(r).Dead = i%2 == 1
		objs = append(objs, r)
	}
	if p.LiveBytes(objs) != 40 {
		t.Fatalf("LiveBytes: %d", p.LiveBytes(objs))
	}
	if p.DeadBytes(objs) != 60 {
		t.Fatalf("DeadBytes: %d", p.DeadBytes(objs))
	}
}

// TestPoolOwnership walks the ObjectPool rules: a freed slot comes
// back zeroed from New, a weak slot never comes back, and Release
// empties the pool in one step while keeping the lists handed to it.
func TestPoolOwnership(t *testing.T) {
	p := new(ObjectPool)
	a := p.New(100, false)
	w := p.New(200, true)
	p.At(a).Dead = true
	p.At(a).Age = 3
	p.Free(a)
	p.At(w).Dead = true
	p.Free(w)
	if got := p.Freed(); len(got) != 1 || got[0] != a {
		t.Fatalf("free list %v, want only the non-weak Ref %d", got, a)
	}
	if b := p.New(300, false); b != a || *p.At(b) != (Object{Size: 300, Count: 1, Next: NoRef}) {
		t.Fatalf("New reused %d as %v, want %d reset to one cluster of 300 bytes", b, p.At(b), a)
	}
	if c := p.New(400, false); c == w {
		t.Fatal("New reused a weak slot")
	}
	if !p.At(w).Dead || p.At(w).Size != 200 {
		t.Fatalf("weak object changed after Free: %v", p.At(w))
	}
	list := append(p.List(), a, w)
	p.PutList(list)
	p.PutList(nil) // nothing to keep
	p.Release()
	if p.Len() != 0 || len(p.Freed()) != 0 {
		t.Fatalf("released pool keeps %d slots, %d freed", p.Len(), len(p.Freed()))
	}
	if got := p.List(); len(got) != 0 || cap(got) != cap(list) {
		t.Fatalf("List after Release: len %d cap %d, want the kept list emptied (cap %d)", len(got), cap(got), cap(list))
	}
	if got := p.List(); got != nil {
		t.Fatalf("second List = %v, want nil", got)
	}
	// A list no later life takes is dropped at the next Release: the
	// pool carries only the lists of the heap that last used it.
	p.PutList(make([]Ref, 0, 5))
	p.Release()
	p.PutList(make([]Ref, 0, 7))
	p.Release()
	if got := p.List(); cap(got) != 7 || p.List() != nil {
		t.Fatalf("List after two Releases: cap %d, want only the last life's list (cap 7)", cap(got))
	}
}

func TestBumpAllocate(t *testing.T) {
	m, s := newSpace(t, 4)
	a := s.pool.New(3000, false)
	b := s.pool.New(3000, false)
	if !s.TryAllocate(a) || !s.TryAllocate(b) {
		t.Fatal("allocation failed")
	}
	if s.pool.At(a).Offset != 0 || s.pool.At(b).Offset != 3000 {
		t.Fatalf("offsets: %d %d", s.pool.At(a).Offset, s.pool.At(b).Offset)
	}
	if s.Used() != 6000 || s.Free() != 4*osmem.PageSize-6000 {
		t.Fatalf("used=%d free=%d", s.Used(), s.Free())
	}
	// 6000 bytes spans pages 0 and 1.
	if m.PhysPages() != 2 {
		t.Fatalf("phys pages: %d", m.PhysPages())
	}
	// Overflow allocation leaves the space untouched.
	big := s.pool.New(4*osmem.PageSize, false)
	if s.TryAllocate(big) {
		t.Fatal("overflow allocation succeeded")
	}
	if s.Used() != 6000 || len(s.Objects()) != 2 {
		t.Fatal("failed allocation mutated space")
	}
}

func TestResetKeepsPagesResident(t *testing.T) {
	m, s := newSpace(t, 8)
	s.TryAllocate(s.pool.New(8*osmem.PageSize, false))
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

func TestRelocateCompacts(t *testing.T) {
	_, s := newSpace(t, 16)
	var objs []Ref
	for i := 0; i < 8; i++ {
		o := s.pool.New(osmem.PageSize, false)
		s.TryAllocate(o)
		objs = append(objs, o)
	}
	// Keep the odd ones.
	var keep []Ref
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
		if off := s.pool.At(o).Offset; off != int64(i)*osmem.PageSize {
			t.Fatalf("object %d not compacted: offset %d", i, off)
		}
	}
	// Relocate that doesn't fit reports false.
	tiny := NewBumpSpace("tiny", s.pool, s.Region(), 0, osmem.PageSize)
	if tiny.Relocate(keep) {
		t.Fatal("oversized relocate succeeded")
	}
}

func TestSetCapacity(t *testing.T) {
	_, s := newSpace(t, 8)
	s.TryAllocate(s.pool.New(2*osmem.PageSize, false))
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
	s.TryAllocate(s.pool.New(3*osmem.PageSize+10, false))
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
	NewBumpSpace("bad", new(ObjectPool), r, 2*osmem.PageSize, 3*osmem.PageSize)
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
		s := NewBumpSpace("s", new(ObjectPool), r, 0, 64*osmem.PageSize)
		var want int64
		for _, sz := range sizes {
			if s.TryAllocate(s.pool.New(int64(sz)+1, false)) {
				want += int64(sz) + 1
			}
		}
		var got int64
		for _, o := range s.Objects() {
			got += s.pool.At(o).Size
		}
		return got == want && s.Used() == want && s.Used() <= s.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

var _ = sim.Second // keep the sim import honest if the cost test changes
