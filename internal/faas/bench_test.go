package faas

import (
	"fmt"
	"testing"

	"desiccant/internal/obs"
	"desiccant/internal/obs/trace"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// warmInvocationCycle builds a platform holding one warm instance of
// clock, with a metrics collector subscribed to its bus and, withTrace,
// the per-invocation span builder folding the stream on top, and
// returns one warm invocation cycle (thaw, run, freeze) on it.
func warmInvocationCycle(tb testing.TB, withTrace bool) func() {
	spec, err := workload.Lookup("clock")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 30
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	p := New(cfg, eng)
	p.Events().Subscribe(obs.NewCollector(obs.NewRegistry()))
	if withTrace {
		trace.NewBuilder().Attach(p.Events())
	}
	at := sim.Time(0)
	p.Submit(spec, at)
	eng.Run()
	return func() {
		at = at.Add(2 * sim.Second)
		p.Submit(spec, at)
		eng.Run()
	}
}

// BenchmarkInvocationPath measures one warm invocation cycle through
// the platform with a collector on its bus, and with tracing on top.
// The trace=on case records the full tracing-enabled overhead.
func BenchmarkInvocationPath(b *testing.B) {
	run := func(b *testing.B, withTrace bool) {
		cycle := warmInvocationCycle(b, withTrace)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
	b.Run("bus=on", func(b *testing.B) { run(b, false) })
	b.Run("trace=on", func(b *testing.B) { run(b, true) })
}

// warmCycleAllocs is the warm invocation cycle's allocation count.
// Submit, thaw and execution arm the pooled invocation record's own
// event, whose label is built only for a fire hook, and the event bus,
// with a collector subscribed, adds nothing to it.
const warmCycleAllocs = 0

// TestBusAddsNoWarmPathAllocs pins the warm invocation cycle, with a
// collector subscribed to the bus, at warmCycleAllocs: emitting and
// folding its events allocates nothing.
func TestBusAddsNoWarmPathAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(200, warmInvocationCycle(t, false)); got != warmCycleAllocs {
		t.Fatalf("warm invocation cycle allocates %.0f/op with a collector on the bus, want %d", got, warmCycleAllocs)
	}
}

// TestTracingWarmPathAllocFree pins the tracing additions to zero
// allocations when tracing is disabled. The per-invocation ID plumbing
// rides the warm path — takeCached pops the instance, SetCurrentInvo
// tags the shared invo cell the runtime observer reads, putBack
// returns it. This test pins all three on a steady-state pool, so a
// future tracing change that sneaks an allocation into the disabled
// path (e.g. boxing the ID or logging per emit) fails here rather than
// only showing up as a bench regression.
func TestTracingWarmPathAllocFree(t *testing.T) {
	spec, err := workload.Lookup("clock")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 30
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	p := New(cfg, eng) // no subscriber: tracing disabled
	p.Submit(spec, 0)
	eng.Run()
	var key poolKey
	var found bool
	for k := range p.cached {
		key, found = k, true
		break
	}
	if !found {
		t.Fatal("no cached instance after warm invocation")
	}
	// One untimed round first so putBack's pool slice reaches its
	// steady-state capacity (growth is amortized, not per-op).
	warm := p.takeCached(key)
	if warm == nil {
		t.Fatal("takeCached returned nil on a warm pool")
	}
	p.putBack(key, warm)
	allocs := testing.AllocsPerRun(1000, func() {
		inst := p.takeCached(key)
		inst.SetCurrentInvo(42)
		if inst.LastInvo() != 42 {
			t.Fatal("invo cell lost the tag")
		}
		inst.SetCurrentInvo(0)
		p.putBack(key, inst)
	})
	if allocs != 0 {
		t.Fatalf("warm path with tracing disabled allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkMemoryUsed measures the cache-occupancy read that every
// freeze (ensureCacheFits) and every manager wake-up makes, on a
// platform holding 64 frozen JavaScript instances that share the
// runtime's libraries. A real co-mapper's cold boot and eviction run
// once during set-up; each iteration then repeats that churn at the
// page level — a fresh address space faults in one page of every
// shared file and is destroyed, changing the libraries' refcounts —
// before reading the occupancy, which the co-mapper's comings and
// goings keep current in the platform's tally, so the read is O(1).
func BenchmarkMemoryUsed(b *testing.B) {
	const frozen = 64
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 30 // room for every instance: no evictions
	cfg.CPUs = frozen * cfg.ColdBootCPU
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	p := New(cfg, eng)
	for i := 0; i < frozen; i++ {
		name := [...]string{"clock", "fft"}[i%2]
		if err := p.SubmitName(name, 0); err != nil {
			b.Fatal(err)
		}
	}
	eng.Run()
	if got := p.CachedCount(); got != frozen {
		b.Fatalf("%d frozen instances, want %d", got, frozen)
	}
	// A co-mapper of the same libraries boots, freezes, and is evicted.
	if err := p.SubmitName("matrix", eng.Now().Add(sim.Second)); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	for _, inst := range p.AppendCached(nil) {
		if inst.Spec.Name == "matrix" {
			p.evict(inst, obs.EvictPressure)
		}
	}
	m := p.Machine()
	files := m.Files()
	b.ReportAllocs()
	b.ResetTimer()
	var used int64
	for i := 0; i < b.N; i++ {
		co := m.NewAddressSpace("co-mapper")
		for _, name := range files {
			co.MmapFile(name, m.File(name, 0), 0, 1).Touch(0, 1, false)
		}
		m.Destroy(co)
		used += p.MemoryUsed()
	}
	if used <= 0 {
		b.Fatal("empty cache")
	}
}

// TestSubmitAllocs pins the whole request path through Submit on a warm
// instance: the arrival, the thaw, the execution, the freeze and its
// keep-alive, with earlier keep-alives firing as no-ops in between.
// After a warm-up, a batch of n requests submitted up front allocates
// nothing for any n up to the arrivals' free-list bound, with or
// without a collector on the bus. A larger batch allocates only the
// arrival slabs past that bound, a count that grows with the batch's
// size but is not one per invocation.
func TestSubmitAllocs(t *testing.T) {
	spec, err := workload.Lookup("clock")
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int, subscribe bool) float64 {
		cfg := DefaultConfig()
		cfg.CacheBytes = 1 << 30
		// Long enough that the instance, reused every 2 s, never idles
		// out; short enough that the keep-alives pending at once, and
		// so the timers and the event queue, reach their steady size
		// within the warm-up.
		cfg.KeepAlive = 10 * sim.Second
		eng := sim.NewEngine()
		p := New(cfg, eng)
		if subscribe {
			p.Events().Subscribe(obs.NewCollector(obs.NewRegistry()))
		}
		at := sim.Time(0)
		batch := func() {
			for i := 0; i < n; i++ {
				at = at.Add(2 * sim.Second)
				p.Submit(spec, at)
			}
			eng.RunUntil(at.Add(sim.Second))
		}
		for i := 0; i < 3; i++ {
			batch() // boot the instance, fill the pools
		}
		// Over 400 batches the amortized growth of the latency samples
		// and of the instance's heap averages out below one per batch.
		got := testing.AllocsPerRun(400, batch)
		if p.Stats().ColdBoots != 1 || p.Stats().Evictions != 0 {
			t.Fatalf("n=%d: %d cold boots, %d evictions, want one warm instance throughout",
				n, p.Stats().ColdBoots, p.Stats().Evictions)
		}
		return got
	}
	for _, subscribe := range []bool{false, true} {
		for _, n := range []int{1, 16, recordSlab} {
			t.Run(fmt.Sprintf("collector=%v/n=%d", subscribe, n), func(t *testing.T) {
				if got := measure(n, subscribe); got != 0 {
					t.Errorf("a batch of %d warm invocations allocates %v, want 0", n, got)
				}
			})
		}
	}
	t.Run("past the bound", func(t *testing.T) {
		n := 4 * recordSlab
		if got, slabs := measure(n, false), float64((n-recordSlab)/arrivalSlab); got > slabs {
			t.Errorf("a batch of %d warm invocations allocates %v, want at most %v arrival slabs", n, got, slabs)
		}
	})
}
