package runtime_test

import (
	"testing"
	"testing/quick"

	"desiccant/internal/g1gc"
	"desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/pyarena"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/v8heap"
)

// newRuntimes builds one instance of every registered heap simulator
// on its own machine.
func newRuntimes(budget int64) map[string]runtime.Runtime {
	out := map[string]runtime.Runtime{}
	mk := func(name string) runtime.Runtime {
		m := osmem.NewMachine()
		as := m.NewAddressSpace(name)
		rt, err := runtime.New(name, runtime.Config{
			AddressSpace: as, MemoryBudget: budget,
		})
		if err != nil {
			panic(err)
		}
		return rt
	}
	for _, name := range []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName} {
		out[name] = mk(name)
	}
	return out
}

// TestDifferentialLiveBytes drives the same allocation/death sequence
// through all four heap simulators and checks that every one of them
// agrees with the reference live-byte count — the quantity Desiccant's
// §4.5.2 estimator relies on — and that Reclaim leaves each heap
// within its invariants.
func TestDifferentialLiveBytes(t *testing.T) {
	f := func(ops []uint16) bool {
		runtimes := newRuntimes(128 << 20)
		live := map[string][]mm.Ref{}
		want := map[string]int64{}
		for _, op := range ops {
			// Sizes stay below pyarena's 256KB arena so every runtime
			// can satisfy every request.
			size := int64(op%200+1) << 10
			kill := op%5 == 4
			for name, rt := range runtimes {
				if kill {
					if objs := live[name]; len(objs) > 0 {
						o := rt.Objects().At(objs[0])
						o.Dead = true
						want[name] -= o.Size
						live[name] = objs[1:]
					}
					continue
				}
				o, err := rt.Allocate(size, runtime.AllocOptions{})
				if err != nil {
					return false
				}
				live[name] = append(live[name], o)
				want[name] += size
			}
		}
		for name, rt := range runtimes {
			if rt.LiveBytes() != want[name] {
				t.Logf("%s: live %d want %d", name, rt.LiveBytes(), want[name])
				return false
			}
		}
		// Reclaim everywhere: live bytes must be preserved exactly and
		// the heaps must stay allocatable.
		for name, rt := range runtimes {
			rep := rt.Reclaim(false)
			if rep.LiveBytes != want[name] {
				t.Logf("%s: reclaim live %d want %d", name, rep.LiveBytes, want[name])
				return false
			}
			if _, err := rt.Allocate(4096, runtime.AllocOptions{}); err != nil {
				t.Logf("%s: post-reclaim allocation failed: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialReclaimBeatsCollect checks, for every runtime, the
// paper's core claim: after a churn-heavy frozen phase, Reclaim
// releases memory a plain full collection leaves resident.
func TestDifferentialReclaimBeatsCollect(t *testing.T) {
	for _, name := range []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName} {
		name := name
		t.Run(name, func(t *testing.T) {
			m := osmem.NewMachine()
			as := m.NewAddressSpace(name)
			rt, err := runtime.New(name, runtime.Config{
				AddressSpace: as, MemoryBudget: 128 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			// One pinned object per stretch of churn, so non-moving
			// heaps fragment.
			for i := 0; i < 1500; i++ {
				o, err := rt.Allocate(32<<10, runtime.AllocOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if i%40 != 0 {
					rt.Objects().At(o).Dead = true
				}
			}
			rt.CollectFull(false)
			rt.DrainGCCost()
			afterCollect := as.USS()
			rep := rt.Reclaim(false)
			afterReclaim := as.USS()
			if rep.ReleasedBytes <= 0 {
				t.Fatalf("reclaim released nothing (collect left %d resident)", afterCollect)
			}
			if afterReclaim >= afterCollect {
				t.Fatalf("reclaim (%d) did not beat collect (%d)", afterReclaim, afterCollect)
			}
			// Resident can never drop below the page-rounded live set.
			if afterReclaim < rt.LiveBytes() {
				t.Fatalf("resident %d below live %d", afterReclaim, rt.LiveBytes())
			}
		})
	}
}

// recorder is a GCObserver that totals what it is told.
type recorder struct {
	pauses   int
	paused   sim.Duration
	released int64
}

func (r *recorder) GCPause(full bool, pause sim.Duration, collected int64) {
	r.pauses++
	r.paused += pause
}

func (r *recorder) HeapResized(before, after int64) {}

func (r *recorder) PagesReleased(bytes int64) { r.released += bytes }

// TestObserverSeesEveryRuntime holds every runtime to the
// runtime.Config contract: each collection's cost reaches the observer
// as a GCPause, and Reclaim reports the bytes it returns to the OS
// through PagesReleased. It also checks the reclaim bill: Reclaim's
// CPU cost is its collection's pauses plus 1µs per MiB released.
func TestObserverSeesEveryRuntime(t *testing.T) {
	for _, name := range []string{hotspot.RuntimeName, v8heap.RuntimeName, g1gc.RuntimeName, pyarena.RuntimeName} {
		name := name
		t.Run(name, func(t *testing.T) {
			rec := &recorder{}
			m := osmem.NewMachine()
			rt, err := runtime.New(name, runtime.Config{
				AddressSpace: m.NewAddressSpace(name), MemoryBudget: 128 << 20,
				Observer: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				o, err := rt.Allocate(32<<10, runtime.AllocOptions{})
				if err != nil {
					t.Fatal(err)
				}
				rt.Objects().At(o).Dead = i%40 != 0
			}
			if rec.pauses == 0 {
				t.Fatal("churn ran no observed collection")
			}
			if cost := rt.DrainGCCost(); cost != rec.paused {
				t.Fatalf("observed pauses total %v, runtime charged %v", rec.paused, cost)
			}
			pausedBefore := rec.paused
			rep := rt.Reclaim(false)
			if rep.ReleasedBytes < 1<<20 || rec.released != rep.ReleasedBytes {
				t.Fatalf("observed %d released bytes, Reclaim reported %d", rec.released, rep.ReleasedBytes)
			}
			want := rec.paused - pausedBefore + sim.Duration(rep.ReleasedBytes>>20)*sim.Microsecond
			if rep.CPUCost != want {
				t.Fatalf("Reclaim billed %v for %d released bytes; its pauses plus the release charge total %v",
					rep.CPUCost, rep.ReleasedBytes, want)
			}
		})
	}
}
