package container

import (
	"testing"

	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

const mb = int64(1) << 20

func defaultOpts(shared bool) Options {
	return Options{MemoryBudget: 256 * mb, ShareLibraries: shared}
}

func newInstance(t *testing.T, m *osmem.Machine, id int, fn string, stage int, shared bool) *Instance {
	t.Helper()
	spec, err := workload.Lookup(fn)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(m, id, spec, stage, 0, defaultOpts(shared))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceFootprint(t *testing.T) {
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "file-hash", 0, true)
	if inst.Status() != Idle {
		t.Fatalf("status: %v", inst.Status())
	}
	u := inst.Usage()
	// Before any invocation: libraries (private: only mapper) +
	// non-heap, empty heap.
	if u.USS == 0 {
		t.Fatal("no USS after boot")
	}
	spec := inst.Spec
	if u.PrivateDirty < spec.NonHeapBytes {
		t.Fatalf("non-heap not touched: %d", u.PrivateDirty)
	}
	if inst.HeapMemory() != 0 {
		t.Fatalf("heap resident before use: %d", inst.HeapMemory())
	}
	if inst.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLibrarySharingAcrossInstances(t *testing.T) {
	m := osmem.NewMachine()
	a := newInstance(t, m, 1, "fft", 0, true)
	ussAlone := a.USS()
	b := newInstance(t, m, 2, "fft", 0, true)
	// With shared libraries, the second instance collapses both USS
	// values: library pages are now shared.
	if a.USS() >= ussAlone {
		t.Fatalf("library pages did not amortize: %d -> %d", ussAlone, a.USS())
	}
	if got := a.USS(); got != b.USS() {
		t.Fatalf("asymmetric twins: %d vs %d", got, b.USS())
	}
}

func TestLambdaProfileNeverShares(t *testing.T) {
	m := osmem.NewMachine()
	a := newInstance(t, m, 1, "fft", 0, false)
	ussAlone := a.USS()
	_ = newInstance(t, m, 2, "fft", 0, false)
	if a.USS() != ussAlone {
		t.Fatalf("Lambda-profile libraries were shared: %d -> %d", ussAlone, a.USS())
	}
}

func TestLifecycle(t *testing.T) {
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "clock", 0, true)
	inst.BeginRun(10)
	if inst.Status() != Running {
		t.Fatal("not running")
	}
	rep, gc, faults, err := inst.InvokeBody(sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllocatedBytes == 0 {
		t.Fatal("no allocation")
	}
	if faults <= 0 {
		t.Fatal("first invocation should fault pages in")
	}
	_ = gc
	inst.Freeze(20)
	if inst.Status() != Frozen || inst.FrozenAt() != 20 {
		t.Fatal("freeze bookkeeping wrong")
	}
	if inst.FrozenFor(50) != 30 {
		t.Fatalf("FrozenFor: %v", inst.FrozenFor(50))
	}
	inst.BeginRun(60)
	if inst.FrozenFor(70) != 0 {
		t.Fatal("FrozenFor nonzero while running")
	}
	if inst.LastUsed() != 60 {
		t.Fatalf("LastUsed: %v", inst.LastUsed())
	}
	inst.Kill()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BeginRun on dead instance did not panic")
			}
		}()
		inst.BeginRun(80)
	}()
}

func TestInvokeBodyRequiresRunning(t *testing.T) {
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "clock", 0, true)
	defer func() {
		if recover() == nil {
			t.Fatal("InvokeBody on idle instance did not panic")
		}
	}()
	inst.InvokeBody(sim.NewRNG(1))
}

func TestFrozenGarbageAccumulatesAndReclaimReleases(t *testing.T) {
	// End-to-end mechanism check: run a function repeatedly, freeze,
	// observe frozen garbage, reclaim, observe the drop.
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "sort", 0, true)
	rng := sim.NewRNG(7)
	for i := 0; i < 20; i++ {
		inst.BeginRun(sim.Time(i) * 100)
		if _, _, _, err := inst.InvokeBody(rng); err != nil {
			t.Fatal(err)
		}
		inst.Freeze(sim.Time(i)*100 + 50)
	}
	ussFrozen := inst.USS()
	live := inst.Runtime.LiveBytes()
	if ussFrozen < 2*live {
		t.Fatalf("expected substantial frozen garbage: uss=%d live=%d", ussFrozen, live)
	}
	rep := inst.Reclaim(false, false)
	if rep.ReleasedBytes <= 0 {
		t.Fatal("nothing released")
	}
	if inst.USS() >= ussFrozen {
		t.Fatal("USS did not drop")
	}
}

func TestUnmapPrivateLibraries(t *testing.T) {
	m := osmem.NewMachine()
	solo := newInstance(t, m, 1, "pi", 0, true)
	rng := sim.NewRNG(9)
	solo.BeginRun(0)
	if _, _, _, err := solo.InvokeBody(rng); err != nil {
		t.Fatal(err)
	}
	solo.Freeze(1)

	solo.Reclaim(false, false)
	ussBefore := solo.USS()
	// The second reclaim finds no heap garbage left; anything it
	// releases is private library memory.
	withUnmap := solo.Reclaim(false, true)
	if withUnmap.ReleasedBytes <= 0 {
		t.Fatal("unmap pass released nothing")
	}
	if solo.USS() >= ussBefore {
		t.Fatalf("unmap optimization released nothing: %d -> %d", ussBefore, solo.USS())
	}

	// With a sharing co-tenant, libraries must NOT be unmapped.
	other := newInstance(t, m, 2, "pi", 0, true)
	_ = other
	ussShared := solo.USS()
	solo.Reclaim(false, true)
	if solo.USS() < ussShared-int64(osmem.PageSize) {
		t.Fatal("unmapped shared libraries")
	}
}

func TestSwapOutHeap(t *testing.T) {
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "sort", 0, true)
	inst.BeginRun(0)
	if _, _, _, err := inst.InvokeBody(sim.NewRNG(3)); err != nil {
		t.Fatal(err)
	}
	inst.Freeze(1)
	swapped := inst.SwapOutHeap(4 * mb)
	if swapped != 4*mb {
		t.Fatalf("swapped: %d", swapped)
	}
	if m.SwapPages() == 0 {
		t.Fatal("nothing on swap device")
	}
	// Resuming faults pages back at major-fault cost.
	inst.BeginRun(2)
	_, _, faults, err := inst.InvokeBody(sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if faults <= 0 {
		t.Fatal("no fault cost after swap")
	}
}

func TestStageIsolation(t *testing.T) {
	m := osmem.NewMachine()
	s0 := newInstance(t, m, 1, "mapreduce", 0, true)
	s1 := newInstance(t, m, 2, "mapreduce", 1, true)
	if s0.Stage == s1.Stage {
		t.Fatal("stages not distinct")
	}
	if s0.AS == s1.AS {
		t.Fatal("stages share an address space")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Idle: "idle", Running: "running", Frozen: "frozen", Dead: "dead", Status(42): "status(42)",
	} {
		if s.String() != want {
			t.Errorf("Status(%d): %q", int(s), s.String())
		}
	}
}
