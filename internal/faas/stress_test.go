package faas

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func TestOOMKillPath(t *testing.T) {
	cfg := testConfig()
	cfg.InstanceBudget = 24 * mb // far too small for image-resize
	eng, p := newPlatform(t, cfg)
	if err := p.SubmitName("image-resize", 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := p.Stats()
	if st.OOMKills == 0 {
		t.Fatal("no OOM kill on a 24MB instance")
	}
	if st.Completions != 0 {
		t.Fatal("OOMed request completed")
	}
	if p.CachedCount() != 0 {
		t.Fatal("OOMed instance cached")
	}
	// The platform remains healthy for later requests.
	if err := p.SubmitName("clock", eng.Now().Add(sim.Second)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.Stats().Completions != 1 {
		t.Fatal("platform wedged after OOM kill")
	}
}

// TestCPUPoolConservation drives random load and verifies the CPU pool
// is exactly restored once everything drains — the invariant the whole
// latency model rests on.
func TestCPUPoolConservation(t *testing.T) {
	names := workload.Names()
	f := func(seed uint64, burst uint8) bool {
		cfg := testConfig()
		cfg.CPUs = 4
		cfg.CacheBytes = 1 << 30
		eng := sim.NewEngine()
		p := New(cfg, eng)
		rng := sim.NewRNG(seed)
		n := int(burst%40) + 1
		for i := 0; i < n; i++ {
			name := names[rng.Intn(len(names))]
			if err := p.SubmitName(name, sim.Time(rng.Int63n(int64(5*sim.Second)))); err != nil {
				return false
			}
		}
		eng.Run()
		st := p.Stats()
		if st.Completions+st.OOMKills != st.Requests {
			return false
		}
		// All CPU shares returned.
		return p.IdleCPU() > cfg.CPUs-1e-6 && p.IdleCPU() < cfg.CPUs+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() (int64, float64) {
		cfg := testConfig()
		eng := sim.NewEngine()
		p := New(cfg, eng)
		for i := 0; i < 30; i++ {
			name := workload.Names()[i%10]
			if err := p.SubmitName(name, sim.Time(i)*sim.Time(700*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return p.Stats().Completions, p.Stats().Latency.Mean()
	}
	c1, l1 := runOnce()
	c2, l2 := runOnce()
	if c1 != c2 || l1 != l2 {
		t.Fatalf("nondeterministic platform: (%d, %v) vs (%d, %v)", c1, l1, c2, l2)
	}
}

// TestEvictionOrderIsLRU pins the cache's victim policy end to end:
// under pressure the platform evicts least-recently-used first, so the
// pressure-eviction sequence observed on the bus must be in
// nondecreasing freeze-time order.
func TestEvictionOrderIsLRU(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 96 * mb // force pressure after a few freezes
	eng := sim.NewEngine()
	p := New(cfg, eng)
	rec := obs.NewRecorder()
	p.Events().Subscribe(rec)

	// Distinct functions, staggered arrivals: each instance freezes
	// exactly once, so LastUsed is its freeze time for good.
	names := []string{"image-resize", "fft", "matrix", "sort", "factor", "clock"}
	for i, name := range names {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(2*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	frozeAt := map[int]sim.Time{}
	var lastEvict sim.Time = -1
	evictions := 0
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvFreeze:
			if _, seen := frozeAt[ev.Inst]; !seen {
				frozeAt[ev.Inst] = ev.Time
			}
		case obs.EvEvict:
			if ev.Aux != obs.EvictPressure {
				continue
			}
			evictions++
			ft, ok := frozeAt[ev.Inst]
			if !ok {
				t.Fatalf("evicted instance %d never froze", ev.Inst)
			}
			if ft < lastEvict {
				t.Fatalf("eviction order not LRU: instance %d frozen at %v evicted after one frozen at %v",
					ev.Inst, ft, lastEvict)
			}
			lastEvict = ft
		}
	}
	if evictions < 2 {
		t.Fatalf("cache never came under enough pressure: %d evictions", evictions)
	}
}

// TestTakeCachedDeprioritizesReclaiming pins the §4.2 thaw-side rule:
// the router prefers the most recent instance that is NOT mid-reclaim,
// and only interrupts a reclamation when no other instance exists.
func TestTakeCachedDeprioritizesReclaiming(t *testing.T) {
	eng, p := newPlatform(t, testConfig())
	for _, at := range []sim.Time{0, sim.Time(3 * sim.Second)} {
		if err := p.SubmitName("fft", at); err != nil {
			t.Fatal(err)
		}
	}
	// Two back-to-back arrivals at t=0 force a second instance.
	if err := p.SubmitName("fft", 1); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	key := poolKey{"fft", 0}
	if got := len(p.cached[key]); got != 2 {
		t.Fatalf("want 2 cached fft instances, got %d", got)
	}
	mru := p.cached[key][1]
	lru := p.cached[key][0]
	mru.Reclaiming = true
	if got := p.takeCached(key); got != lru {
		t.Fatalf("takeCached picked %v over non-reclaiming %v", got, lru)
	}
	p.putBack(key, lru)
	lru.Reclaiming = true
	// Everything mid-reclaim: thaw proceeds anyway, cutting one short.
	if got := p.takeCached(key); got == nil {
		t.Fatal("takeCached refused when all instances were reclaiming")
	}
}

// TestConcurrentCellsByteIdentical runs the same platform cell serially
// and then many times concurrently (the sweep worker-pool situation:
// independent engines in sibling goroutines) and requires identical
// results — no shared mutable state leaks between cells.
func TestConcurrentCellsByteIdentical(t *testing.T) {
	cell := func() string {
		cfg := testConfig()
		cfg.CacheBytes = 256 * mb
		eng := sim.NewEngine()
		p := New(cfg, eng)
		names := workload.Names()
		rng := sim.NewRNG(99)
		for i := 0; i < 40; i++ {
			name := names[rng.Intn(len(names))]
			if err := p.SubmitName(name, sim.Time(rng.Int63n(int64(20*sim.Second)))); err != nil {
				return "submit error: " + err.Error()
			}
		}
		eng.Run()
		st := p.Stats()
		return fmt.Sprintf("c=%d cb=%d ev=%d oom=%d lat=%v cpu=%d",
			st.Completions, st.ColdBoots, st.Evictions, st.OOMKills,
			st.Latency.Mean(), int64(st.CPUBusy))
	}
	want := cell()
	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = cell()
		}(w)
	}
	wg.Wait()
	for w, g := range got {
		if g != want {
			t.Fatalf("concurrent cell %d diverged:\n%s\nvs serial\n%s", w, g, want)
		}
	}
}

func TestLambdaProfilePlatform(t *testing.T) {
	cfg := testConfig()
	cfg.Profile = Lambda
	eng, p := newPlatform(t, cfg)
	if err := p.SubmitName("fft", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitName("fft", sim.Time(3*sim.Second)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if p.Stats().Completions != 2 {
		t.Fatalf("completions: %d", p.Stats().Completions)
	}
	// Lambda images are private: the cached instance's USS includes
	// its libraries, unlike the OpenWhisk profile with a co-tenant.
	cached := p.AppendCached(nil)
	if len(cached) != 1 {
		t.Fatalf("cached: %d", len(cached))
	}
	if cached[0].USS() < 30*mb {
		t.Fatalf("Lambda-profile USS looks shared: %d", cached[0].USS())
	}
}
