package faas

import (
	"math"
	"testing"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

const mb = int64(1) << 20

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 30
	cfg.KeepAlive = 0 // keep tests deterministic unless exercised
	return cfg
}

func newPlatform(t *testing.T, cfg Config) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, New(cfg, eng)
}

func TestSingleRequestColdThenWarm(t *testing.T) {
	eng, p := newPlatform(t, testConfig())
	if err := p.SubmitName("clock", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitName("clock", sim.Time(2*sim.Second)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := p.Stats()
	if st.Requests != 2 || st.Completions != 2 {
		t.Fatalf("requests=%d completions=%d", st.Requests, st.Completions)
	}
	if st.ColdBoots != 1 || st.WarmStarts != 1 {
		t.Fatalf("cold=%d warm=%d", st.ColdBoots, st.WarmStarts)
	}
	// The first (cold) latency dominates: boot is 300ms for JS.
	if st.Latency.Max() < 300 {
		t.Fatalf("cold latency too small: %vms", st.Latency.Max())
	}
	if st.Latency.Min() > 100 {
		t.Fatalf("warm latency too large: %vms", st.Latency.Min())
	}
	if p.QueueLength() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestSubmitUnknownFunction(t *testing.T) {
	_, p := newPlatform(t, testConfig())
	if err := p.SubmitName("nope", 0); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestChainRunsAllStages(t *testing.T) {
	eng, p := newPlatform(t, testConfig())
	spec, _ := workload.Lookup("image-pipeline") // 4 stages
	p.Submit(spec, 0)
	eng.Run()
	st := p.Stats()
	if st.Completions != 1 {
		t.Fatalf("completions: %d", st.Completions)
	}
	if st.ColdBoots != 4 {
		t.Fatalf("each stage needs its own instance: cold=%d", st.ColdBoots)
	}
	// All four stage instances are now frozen in the cache with their
	// intermediates released.
	cached := p.AppendCached(nil)
	if len(cached) != 4 {
		t.Fatalf("cached: %d", len(cached))
	}
	for _, inst := range cached {
		if inst.State.PendingIntermediateBytes() != 0 {
			t.Fatalf("stage %d kept intermediates after chain completion", inst.Stage)
		}
		if inst.Status() != container.Frozen {
			t.Fatalf("stage %d not frozen", inst.Stage)
		}
	}
}

func TestFrozenInstancesHoldFrozenGarbage(t *testing.T) {
	eng, p := newPlatform(t, testConfig())
	spec, _ := workload.Lookup("sort")
	for i := 0; i < 10; i++ {
		p.Submit(spec, sim.Time(i)*sim.Time(2*sim.Second))
	}
	eng.Run()
	cached := p.AppendCached(nil)
	if len(cached) != 1 {
		t.Fatalf("cached: %d", len(cached))
	}
	inst := cached[0]
	if uss, live := inst.USS(), inst.Runtime.LiveBytes(); uss < 2*live {
		t.Fatalf("no frozen garbage: uss=%d live=%d", uss, live)
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 96 * mb // room for only a couple of frozen instances
	eng, p := newPlatform(t, cfg)

	evictions := 0
	p.Events().Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvEvict && ev.Aux == obs.EvictPressure {
			evictions++
		}
	}))

	// Serialize different functions so each needs its own instance.
	names := []string{"sort", "fft", "matrix", "file-hash", "pi", "factor"}
	for i, name := range names {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(3*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	st := p.Stats()
	if st.Completions != int64(len(names)) {
		t.Fatalf("completions: %d", st.Completions)
	}
	if st.Evictions == 0 || evictions != int(st.Evictions) {
		t.Fatalf("evictions: stats=%d bus=%d", st.Evictions, evictions)
	}
	if p.MemoryUsed() > cfg.CacheBytes {
		t.Fatalf("cache overcommitted: %d", p.MemoryUsed())
	}
}

func TestQueueingWhenCPUExhausted(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1.0
	cfg.ColdBootCPU = 1.0
	cfg.CacheBytes = 4 << 30
	eng, p := newPlatform(t, cfg)
	// Two simultaneous cold boots can't fit in one core.
	spec1, _ := workload.Lookup("pi")
	spec2, _ := workload.Lookup("factor")
	p.Submit(spec1, 0)
	p.Submit(spec2, 0)
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if p.QueueLength() != 1 {
		t.Fatalf("expected one queued request, got %d", p.QueueLength())
	}
	eng.Run()
	st := p.Stats()
	if st.Completions != 2 {
		t.Fatalf("completions: %d", st.Completions)
	}
	if st.QueueWait.Count() == 0 {
		t.Fatal("no queue wait recorded")
	}
}

func TestEagerPolicyShrinksFrozenFootprintButBurnsCPU(t *testing.T) {
	run := func(policy Policy) (*Stats, int64) {
		cfg := testConfig()
		cfg.Policy = policy
		eng, p := newPlatform(t, cfg)
		spec, _ := workload.Lookup("file-hash")
		for i := 0; i < 20; i++ {
			p.Submit(spec, sim.Time(i)*sim.Time(3*sim.Second))
		}
		eng.Run()
		cached := p.AppendCached(nil)
		if len(cached) != 1 {
			return p.Stats(), 0
		}
		return p.Stats(), cached[0].USS()
	}
	_, vanillaUSS := run(PolicyVanilla)
	eagerStats, eagerUSS := run(PolicyEager)
	if eagerUSS == 0 || vanillaUSS == 0 {
		t.Fatal("setup failed")
	}
	if eagerUSS >= vanillaUSS {
		t.Fatalf("eager GC did not reduce footprint: %d vs %d", eagerUSS, vanillaUSS)
	}
	if eagerStats.CPUBusy == 0 {
		t.Fatal("no CPU accounted")
	}
}

func TestKeepAliveEvicts(t *testing.T) {
	cfg := testConfig()
	cfg.KeepAlive = 5 * sim.Second
	eng, p := newPlatform(t, cfg)
	if err := p.SubmitName("clock", 0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	if p.CachedCount() != 1 {
		t.Fatal("instance not cached")
	}
	eng.RunUntil(sim.Time(20 * sim.Second))
	if p.CachedCount() != 0 {
		t.Fatal("keep-alive did not evict")
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions: %d", p.Stats().Evictions)
	}
}

func TestColdBootRate(t *testing.T) {
	var s Stats
	if s.ColdBootRate() != 0 {
		t.Fatal("empty rate")
	}
	s.Completions = 4
	s.ColdBoots = 2
	if s.ColdBootRate() != 0.5 {
		t.Fatalf("rate: %v", s.ColdBootRate())
	}
}

func TestIdleCPUGrants(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 2
	_, p := newPlatform(t, cfg)
	if p.IdleCPU() != 2 {
		t.Fatalf("idle: %v", p.IdleCPU())
	}
	got := p.TryAcquireIdleCPU(1.5)
	if got != 1.5 || p.IdleCPU() != 0.5 {
		t.Fatalf("grant: %v idle: %v", got, p.IdleCPU())
	}
	got = p.TryAcquireIdleCPU(1.0)
	if got != 0.5 {
		t.Fatalf("partial grant: %v", got)
	}
	p.ReleaseIdleCPU(2.0)
	if p.IdleCPU() != 2 {
		t.Fatalf("idle after release: %v", p.IdleCPU())
	}
}

// TestIdleCPUResidueGrantsNothing: a pool left with only a float
// residue must refuse the grant (the caller takes its starved path)
// instead of handing out a share so small that the work it paces
// overflows simulated time.
func TestIdleCPUResidueGrantsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 2
	_, p := newPlatform(t, cfg)
	p.TryAcquireIdleCPU(2 - 1e-12)
	residue := p.IdleCPU()
	if residue <= 0 || residue > 1e-9 {
		t.Fatalf("setup left %v idle, want a positive residue", residue)
	}
	if got := p.TryAcquireIdleCPU(1); got != 0 {
		t.Fatalf("residue pool granted %v, want 0", got)
	}
	if p.IdleCPU() != residue {
		t.Fatalf("refused grant changed the pool: %v -> %v", residue, p.IdleCPU())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config rejected: %v", err)
	}
	for i, mutate := range []func(*Config){
		func(c *Config) { c.InstanceBudget = 0 },
		func(c *Config) { c.CacheBytes = 0 },
		func(c *Config) { c.PerInstanceCPU = 0 },
		func(c *Config) { c.CPUs = c.PerInstanceCPU / 2 },
		func(c *Config) { c.CPUs = math.NaN() },
	} {
		cfg := testConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d validated", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mutation %d accepted", i)
				}
			}()
			New(cfg, sim.NewEngine())
		}()
	}
}

func TestMemoryNeverExceedsCacheUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 768 * mb
	eng, p := newPlatform(t, cfg)
	rng := sim.NewRNG(99)
	names := workload.Names()
	for i := 0; i < 60; i++ {
		name := names[rng.Intn(len(names))]
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(700*sim.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	worst := int64(0)
	check := func() {
		if m := p.MemoryUsed(); m > worst {
			worst = m
		}
	}
	for eng.Step() {
		check()
	}
	// Admission keeps usage within the cache; between admissions the
	// measured USS of cached instances can transiently exceed it when
	// a destroyed co-tenant privatizes shared library pages, so allow
	// one language's library set of slack.
	const librarySlack = 96 << 20
	if worst > cfg.CacheBytes+librarySlack {
		t.Fatalf("cache exceeded: %d > %d", worst, cfg.CacheBytes)
	}
	if p.Stats().Completions == 0 {
		t.Fatal("nothing completed")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyVanilla.String() != "vanilla" || PolicyEager.String() != "eager" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() != "policy(?)" {
		t.Fatal("unknown policy string")
	}
}

// addFrozenAt stages a frozen instance directly into the cache the way
// the prewarm harnesses do, with LastUsed pinned at the current
// simulated time.
func addFrozenAt(t *testing.T, p *Platform, fn string, id int) *container.Instance {
	t.Helper()
	spec, err := workload.Lookup(fn)
	if err != nil {
		t.Fatal(err)
	}
	now := p.Engine().Now()
	inst, err := container.New(p.Machine(), id, spec, 0, now, container.Options{
		MemoryBudget:   p.Config().InstanceBudget,
		ShareLibraries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.BeginRun(now)
	if _, _, _, err := inst.InvokeBody(sim.NewRNG(uint64(id))); err != nil {
		t.Fatal(err)
	}
	inst.Freeze(now)
	p.AddCached(inst)
	return inst
}

// TestCachedInstancesDeterministicOrder pins the candidate-set
// contract Desiccant's victim selection depends on: least recently
// used first, ties broken by ascending instance ID — never the cache
// pools' map iteration order.
func TestCachedInstancesDeterministicOrder(t *testing.T) {
	eng, p := newPlatform(t, testConfig())

	// Three instances at t=0, inserted in jumbled ID order and spread
	// across different per-function pools (distinct map keys), so a
	// map-order leak would show up as a shuffled prefix.
	for _, id := range []int{3, 1, 2} {
		names := []string{"clock", "fft", "sort"}
		addFrozenAt(t, p, names[id%len(names)], id)
	}
	eng.RunUntil(sim.Time(1 * sim.Second))
	// Two more recently used instances, again inserted out of ID order.
	addFrozenAt(t, p, "clock", 5)
	addFrozenAt(t, p, "fft", 4)

	idsOf := func(insts []*container.Instance) []int {
		ids := make([]int, len(insts))
		for i, inst := range insts {
			ids[i] = inst.ID
		}
		return ids
	}
	want := []int{1, 2, 3, 4, 5}
	got := idsOf(p.AppendCached(nil))
	if len(got) != len(want) {
		t.Fatalf("cached %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached order %v, want %v (LRU first, ID tiebreak)", got, want)
		}
	}
	// The order is a contract, not an accident of one call: repeated
	// calls must agree exactly.
	for call := 0; call < 8; call++ {
		again := idsOf(p.AppendCached(nil))
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("call %d returned %v, want %v", call, again, want)
			}
		}
	}
	// Ordering invariant holds generally: LastUsed ascending, ID
	// breaking ties.
	insts := p.AppendCached(nil)
	for i := 1; i < len(insts); i++ {
		a, b := insts[i-1], insts[i]
		if a.LastUsed() > b.LastUsed() ||
			(a.LastUsed() == b.LastUsed() && a.ID >= b.ID) {
			t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)",
				i, a.LastUsed(), a.ID, b.LastUsed(), b.ID)
		}
	}
}
