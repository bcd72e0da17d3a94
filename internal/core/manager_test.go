package core

import (
	"testing"

	"desiccant/internal/container"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

const mb = int64(1) << 20

func testPlatform(t *testing.T, cacheBytes int64) (*sim.Engine, *faas.Platform) {
	t.Helper()
	cfg := faas.DefaultConfig()
	cfg.CacheBytes = cacheBytes
	cfg.KeepAlive = 0
	eng := sim.NewEngine()
	return eng, faas.New(cfg, eng)
}

// startManager creates and starts a manager on a test platform.
func startManager(p *faas.Platform, cfg Config) *Manager {
	m := New(p, cfg)
	m.Start()
	return m
}

func testManagerConfig() Config {
	cfg := DefaultConfig()
	cfg.FreezeTimeout = 500 * sim.Millisecond
	return cfg
}

func TestProfileDBFallbackChain(t *testing.T) {
	db := newProfileDB()
	// Before any data: defaults.
	live, cpu := db.estimate(&container.Instance{Spec: mustSpec(t, "fft")})
	if live != 0 || cpu != defaultCPUEstimate {
		t.Fatalf("defaults: %d %v", live, cpu)
	}

	eng, p := testPlatform(t, 2<<30)
	_ = eng
	instA := newFrozenInstance(t, p, "fft", 1)
	instB := newFrozenInstance(t, p, "fft", 2)
	instC := newFrozenInstance(t, p, "clock", 3)

	db.record(instA, 10*mb, 10*sim.Millisecond)
	db.record(instA, 20*mb, 20*sim.Millisecond)

	// Instance-level average.
	live, cpu = db.estimate(instA)
	if live != 15*mb || cpu != 15*sim.Millisecond {
		t.Fatalf("instance avg: %d %v", live, cpu)
	}
	// Same function, unknown instance → function average.
	live, cpu = db.estimate(instB)
	if live != 15*mb || cpu != 15*sim.Millisecond {
		t.Fatalf("function avg: %d %v", live, cpu)
	}
	// Different function, no data → global average.
	live, cpu = db.estimate(instC)
	if live != 15*mb || cpu != 15*sim.Millisecond {
		t.Fatalf("global avg: %d %v", live, cpu)
	}
	// Each level of the chain is looked up without allocating: the
	// estimate runs for every candidate at every activation.
	for _, inst := range []*container.Instance{instA, instB, instC} {
		if got := testing.AllocsPerRun(100, func() { db.estimate(inst) }); got != 0 {
			t.Fatalf("estimate(%s #%d) allocates %.0f/op, want 0", inst.Spec.Name, inst.ID, got)
		}
	}
	// Forget drops the instance profile but keeps aggregates.
	db.forget(instA.ID)
	if db.instanceCount() != 0 {
		t.Fatal("forget failed")
	}
	live, _ = db.estimate(instB)
	if live != 15*mb {
		t.Fatal("aggregates lost on forget")
	}
}

func mustSpec(t *testing.T, name string) *workload.Spec {
	t.Helper()
	s, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// record is an Observer that subscribes rec to the platform's bus.
func record(rec *obs.Recorder) Observer {
	return func(p *faas.Platform, _ *Manager) { p.Events().Subscribe(rec) }
}

// newFrozenInstance fabricates a frozen instance outside the platform
// request path, for unit-testing the profile and selection machinery.
func newFrozenInstance(t *testing.T, p *faas.Platform, fn string, id int) *container.Instance {
	t.Helper()
	inst, err := container.New(p.Machine(), id, mustSpec(t, fn), 0, p.Engine().Now(), container.Options{
		MemoryBudget:   p.Config().InstanceBudget,
		ShareLibraries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.BeginRun(p.Engine().Now())
	if _, _, _, err := inst.InvokeBody(sim.NewRNG(uint64(id))); err != nil {
		t.Fatal(err)
	}
	inst.Freeze(p.Engine().Now())
	p.AddCached(inst)
	return inst
}

func TestManagerActivatesUnderPressureAndReclaims(t *testing.T) {
	// Small cache with low thresholds so a handful of frozen
	// instances constitute real pressure.
	eng, p := testPlatform(t, 640*mb)
	cfg := testManagerConfig()
	cfg.LowThreshold = 0.10
	cfg.HighThreshold = 0.15
	mgr := startManager(p, cfg)

	// Build up frozen instances of memory-hungry functions.
	for i, name := range []string{"image-resize", "fft", "matrix", "sort"} {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(2*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Second))
	mgr.Stop()

	st := mgr.Stats()
	if st.Checks == 0 {
		t.Fatal("manager never checked")
	}
	if st.Reclamations == 0 {
		t.Fatalf("manager never reclaimed: %+v (used=%.2f thr=%.2f)",
			st, p.MemoryUsedFraction(), mgr.Threshold())
	}
	if st.ReleasedBytes <= 0 {
		t.Fatal("nothing released")
	}
	if st.CPUTime <= 0 {
		t.Fatal("no CPU accounted")
	}
	if p.Stats().ReclaimCPU != st.CPUTime {
		t.Fatalf("platform/manager CPU accounting mismatch: %v vs %v",
			p.Stats().ReclaimCPU, st.CPUTime)
	}
	// Memory usage must have dropped below the (current) threshold.
	if p.MemoryUsedFraction() > mgr.Threshold() {
		t.Fatalf("pressure not relieved: %.2f > %.2f", p.MemoryUsedFraction(), mgr.Threshold())
	}
}

func TestManagerInactiveWithoutPressure(t *testing.T) {
	eng, p := testPlatform(t, 8<<30) // huge cache: no pressure
	mgr := startManager(p, testManagerConfig())
	for i, name := range []string{"sort", "fft"} {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(20 * sim.Second))
	mgr.Stop()
	if mgr.Stats().Reclamations != 0 {
		t.Fatal("manager reclaimed without pressure")
	}
	if mgr.Stats().Checks == 0 {
		t.Fatal("manager never checked")
	}
}

func TestThresholdDropsOnEvictionAndDriftsBack(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	mgr := startManager(p, cfg)

	// Pressure evictions reported on the platform's bus lower the
	// threshold at the next check.
	eng.RunUntil(sim.Time(checkInterval))
	highBefore := mgr.Threshold()
	if highBefore != cfg.HighThreshold {
		t.Fatalf("initial threshold: %v", highBefore)
	}
	for id := 1; id <= 3; id++ {
		p.Events().Emit(obs.Event{Kind: obs.EvEvict, Inst: id, Aux: obs.EvictPressure})
	}
	eng.RunUntil(sim.Time(2 * checkInterval))
	if mgr.Threshold() != cfg.LowThreshold {
		t.Fatalf("threshold after eviction: %v", mgr.Threshold())
	}
	// Quiet intervals drift it back up.
	eng.RunUntil(sim.Time(12 * checkInterval))
	if mgr.Threshold() <= cfg.LowThreshold {
		t.Fatal("threshold never drifted back")
	}
	mgr.Stop()
	fired := eng.Fired()
	eng.RunUntil(sim.Time(20 * checkInterval))
	if eng.Fired() != fired {
		t.Fatal("manager kept checking after Stop")
	}
}

func TestFreezeTimeoutExcludesRecentlyFrozen(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	cfg.FreezeTimeout = 10 * sim.Second
	mgr := startManager(p, cfg)
	mgr.threshold = 0 // force activation

	inst := newFrozenInstance(t, p, "sort", 1)
	_ = inst
	// The instance froze just now: with a 10s timeout it must not be
	// selected during the first seconds.
	eng.RunUntil(sim.Time(2 * sim.Second))
	if mgr.Stats().Reclamations != 0 {
		t.Fatal("reclaimed an instance inside the freeze timeout")
	}
	mgr.Stop()
}

func TestSelectionPrefersHighestThroughput(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	mgr := startManager(p, testManagerConfig())
	mgr.Stop() // drive manually

	big := newFrozenInstance(t, p, "image-resize", 1) // lots of frozen garbage
	small := newFrozenInstance(t, p, "clock", 2)      // tiny heap

	eng.RunUntil(sim.Time(5 * sim.Second)) // let the freeze timeout pass
	got := mgr.selectCandidate()
	if got != big {
		t.Fatalf("selected %v, want the high-garbage instance", got)
	}
	_ = small
}

func TestSelectionSkipsAlreadyReclaimed(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	mgr := startManager(p, testManagerConfig())
	mgr.Stop()

	inst := newFrozenInstance(t, p, "sort", 1)
	eng.RunUntil(sim.Time(5 * sim.Second))
	if mgr.selectCandidate() != inst {
		t.Fatal("candidate not selected")
	}
	mgr.lastReclaim[inst.ID] = eng.Now()
	if mgr.selectCandidate() != nil {
		t.Fatal("re-selected an instance that has not run since its reclamation")
	}
	// After it runs and freezes again, it becomes eligible.
	inst.BeginRun(eng.Now())
	if _, _, _, err := inst.InvokeBody(sim.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(6 * sim.Second))
	inst.Freeze(eng.Now())
	eng.RunUntil(sim.Time(12 * sim.Second))
	if mgr.selectCandidate() != inst {
		t.Fatal("instance not eligible after re-use")
	}
}

func TestSelectionPolicies(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	cfg.Selection = SelectLRU
	mgr := startManager(p, cfg)
	mgr.Stop()

	a := newFrozenInstance(t, p, "sort", 1)
	eng.RunUntil(sim.Time(1 * sim.Second))
	b := newFrozenInstance(t, p, "fft", 2)
	eng.RunUntil(sim.Time(6 * sim.Second))

	if got := mgr.selectCandidate(); got != a {
		t.Fatalf("LRU picked %v", got)
	}
	mgr.cfg.Selection = SelectRandom
	seen := map[*container.Instance]bool{}
	for i := 0; i < 50; i++ {
		seen[mgr.selectCandidate()] = true
	}
	if !seen[a] || !seen[b] {
		t.Fatal("random selection never varied")
	}
}

func TestSwapModeSwapsInsteadOfReclaiming(t *testing.T) {
	eng, p := testPlatform(t, 640*mb)
	cfg := testManagerConfig()
	cfg.Mode = ModeSwap
	cfg.LowThreshold = 0.10
	cfg.HighThreshold = 0.15
	mgr := startManager(p, cfg)

	for i, name := range []string{"image-resize", "fft", "matrix", "sort"} {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(2*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Time(30 * sim.Second))
	mgr.Stop()
	st := mgr.Stats()
	if st.SwappedBytes <= 0 {
		t.Fatalf("swap mode never swapped: %+v", st)
	}
	if st.ReleasedBytes != 0 {
		t.Fatal("swap mode released via reclaim")
	}
	if p.Machine().SwapPages() == 0 {
		t.Fatal("no pages on the swap device")
	}
}

func TestStopHaltsInFlightReclamations(t *testing.T) {
	// A stopped manager must not start new reclamations when an
	// in-flight one completes: the reclaim-done callback used to call
	// reclaimLoop unconditionally.
	eng, p := testPlatform(t, 640*mb)
	cfg := testManagerConfig()
	cfg.LowThreshold = 0.01
	cfg.HighThreshold = 0.02
	cfg.MaxConcurrent = 1
	mgr := startManager(p, cfg)
	mgr.checkEvent.Cancel() // drive the loop manually

	for i, name := range []string{"image-resize", "fft", "matrix", "sort"} {
		newFrozenInstance(t, p, name, i+1)
	}
	eng.RunUntil(sim.Time(5 * sim.Second)) // past the freeze timeout
	mgr.reclaimLoop()
	if mgr.reclaimsActive != 1 {
		t.Fatalf("reclaimsActive = %d, want 1", mgr.reclaimsActive)
	}
	// Fire the same-instant begin so the reclamation is genuinely
	// in flight (not just admitted) when the manager stops.
	eng.RunUntil(eng.Now())
	// Plenty of candidates remain above the threshold; stopping now
	// must still prevent any follow-up reclamation.
	mgr.Stop()
	eng.RunUntil(sim.Time(200 * sim.Second))
	if got := mgr.Stats().Reclamations; got != 1 {
		t.Fatalf("stopped manager kept reclaiming: %d reclamations", got)
	}
	if mgr.reclaimsActive != 0 {
		t.Fatal("in-flight reclamation never settled its accounting")
	}
}

func TestSwapModeRecordsPreSwapHeap(t *testing.T) {
	// The §4.5.2 estimator must learn the instance's heap memory as it
	// was before SwapOutHeap pushed pages out; recording the post-swap
	// residue as "live bytes" corrupts the fallback chain.
	eng, p := testPlatform(t, 2<<30)
	cfg := testManagerConfig()
	cfg.Mode = ModeSwap
	mgr := startManager(p, cfg)
	mgr.checkEvent.Cancel() // drive manually (Stop would abort the begin)

	inst := newFrozenInstance(t, p, "image-resize", 1)
	eng.RunUntil(sim.Time(5 * sim.Second))
	heapBefore := mgr.heapMemory(inst)
	if heapBefore <= 0 {
		t.Fatal("instance has no heap memory to swap")
	}
	mgr.threshold = 0 // force activation
	if !mgr.reclaimOne() {
		t.Fatal("no reclamation started")
	}
	eng.RunUntil(eng.Now()) // fire the same-instant begin
	if heapAfter := mgr.heapMemory(inst); heapAfter >= heapBefore {
		t.Fatalf("swap released nothing: %d -> %d", heapBefore, heapAfter)
	}
	gotLive, _ := mgr.profiles.estimate(inst)
	if gotLive != heapBefore {
		t.Fatalf("recorded live bytes %d, want pre-swap heap %d", gotLive, heapBefore)
	}
}

func TestManagerProfilesImproveWithObservations(t *testing.T) {
	eng, p := testPlatform(t, 640*mb)
	cfg := testManagerConfig()
	cfg.LowThreshold = 0.05
	cfg.HighThreshold = 0.08
	mgr := startManager(p, cfg)

	spec := mustSpec(t, "image-resize")
	for i := 0; i < 6; i++ {
		p.Submit(spec, sim.Time(i)*sim.Time(5*sim.Second))
	}
	eng.RunUntil(sim.Time(60 * sim.Second))
	mgr.Stop()
	if mgr.Stats().Reclamations < 2 {
		t.Skipf("not enough reclamations to compare: %+v", mgr.Stats())
	}
	// After at least one observation, estimates must come from data.
	cached := p.AppendCached(nil)
	if len(cached) == 0 {
		t.Fatal("no cached instance")
	}
	live, cpu := mgr.profiles.estimate(cached[0])
	if live <= 0 || cpu == defaultCPUEstimate {
		t.Fatalf("estimator still on defaults: live=%d cpu=%v", live, cpu)
	}
}

// TestReclaimSkippedWhenThawedMidSelection covers the §4.2 race: the
// manager admits a candidate, but before the same-instant begin event
// fires, the router thaws the instance for a new invocation. The
// manager must skip it with a bus warning, count the skip, hand back
// the CPU grant, and move on to a replacement candidate.
func TestReclaimSkippedWhenThawedMidSelection(t *testing.T) {
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = 640 * mb
	pcfg.KeepAlive = 0
	eng := sim.NewEngine()
	rec := obs.NewRecorder()
	cfg := testManagerConfig()
	cfg.MaxConcurrent = 1
	p, mgr, err := NewMachine(eng, pcfg, &cfg, record(rec))
	if err != nil {
		t.Fatal(err)
	}
	mgr.checkEvent.Cancel() // drive manually

	victim := newFrozenInstance(t, p, "image-resize", 1) // big heap: picked first
	other := newFrozenInstance(t, p, "clock", 2)
	eng.RunUntil(sim.Time(5 * sim.Second)) // past the freeze timeout
	mgr.threshold = 0                      // force activation

	mgr.reclaimLoop()
	if !victim.Reclaiming {
		t.Fatalf("victim not admitted (reclaiming: victim=%v other=%v)",
			victim.Reclaiming, other.Reclaiming)
	}
	// The router takes the victim before the begin event fires — the
	// platform deliberately does not coordinate with the sweeper.
	victim.BeginRun(eng.Now())
	eng.RunUntil(eng.Now())

	st := mgr.Stats()
	if st.SkippedThaws != 1 {
		t.Fatalf("SkippedThaws = %d, want 1 (%+v)", st.SkippedThaws, st)
	}
	if got := rec.CountByKind(obs.EvReclaimSkipped); got != 1 {
		t.Fatalf("EvReclaimSkipped count = %d, want 1", got)
	}
	if victim.Reclaiming {
		t.Fatal("skipped victim still marked reclaiming")
	}
	if _, ok := mgr.lastReclaim[victim.ID]; ok {
		t.Fatal("skipped victim recorded as reclaimed")
	}
	// The freed grant funded a replacement reclamation at the same
	// instant.
	if st.Reclamations != 1 {
		t.Fatalf("Reclamations = %d, want 1 (replacement)", st.Reclamations)
	}
	if !other.Reclaiming {
		t.Fatal("replacement candidate not reclaiming")
	}
}

// TestVictimSelectionOrderDeterministic builds the same scenario twice
// — separate engines, platforms, and managers at identical seeds, with
// candidate ties on both LastUsed and estimated throughput — and
// drains the candidate set through selectCandidate on each. The victim
// sequences must match exactly: selection order is part of the
// determinism contract (it decides which instances are reclaimed
// before memory pressure clears, and with it every downstream CSV).
func TestVictimSelectionOrderDeterministic(t *testing.T) {
	buildAndDrain := func() []int {
		eng, p := testPlatform(t, 2<<30)
		cfg := testManagerConfig()
		mgr := startManager(p, cfg)
		mgr.Stop()

		// Jumbled insertion order, several per-function pools, and
		// deliberate LastUsed ties: ids 11/7/9 at t=0, ids 3/5 at t=1s.
		names := []string{"fft", "sort", "clock"}
		for i, id := range []int{11, 7, 9} {
			newFrozenInstance(t, p, names[i%len(names)], id)
		}
		eng.RunUntil(sim.Time(1 * sim.Second))
		for i, id := range []int{3, 5} {
			newFrozenInstance(t, p, names[i%len(names)], id)
		}
		eng.RunUntil(sim.Time(6 * sim.Second))

		var order []int
		for {
			inst := mgr.selectCandidate()
			if inst == nil {
				break
			}
			order = append(order, inst.ID)
			// Mark it in-flight the way reclaimOne would, so the next
			// call moves on to the next victim.
			inst.Reclaiming = true
		}
		if len(order) != 5 {
			t.Fatalf("drained %d candidates, want 5: %v", len(order), order)
		}
		return order
	}

	first := buildAndDrain()
	for run := 1; run < 5; run++ {
		again := buildAndDrain()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d selected %v, first run selected %v", run, again, first)
			}
		}
	}
}

// TestSelectCandidateAllocs pins a warm reclamation pick under the
// default (throughput) selection to zero allocations: the cache is
// appended into, and filtered within, a slice the manager reuses.
func TestSelectCandidateAllocs(t *testing.T) {
	eng, p := testPlatform(t, 2<<30)
	mgr := startManager(p, testManagerConfig())
	mgr.Stop()
	for i, fn := range []string{"fft", "sort", "clock", "fft"} {
		newFrozenInstance(t, p, fn, i+1)
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	if mgr.selectCandidate() == nil {
		t.Fatal("no candidate among four frozen instances")
	}
	if n := testing.AllocsPerRun(100, func() { mgr.selectCandidate() }); n != 0 {
		t.Fatalf("a warm pick allocates %v times, want 0", n)
	}
}

// failEvery is an Injector that fails every reclamation.
type failEvery struct{}

func (failEvery) ForceThawRace(int) bool                        { return false }
func (failEvery) PerturbReclaim(int, int64) (int64, bool)       { return 0, true }
func (failEvery) CandidateVisible(int, sim.Time, sim.Time) bool { return true }

// TestFailedReclaimRetriesAreBounded checks the retry bound: with every
// reclamation failing, each instance gets exactly two retries, the
// n-th scheduled n × 250 ms after the failure that triggered it.
func TestFailedReclaimRetriesAreBounded(t *testing.T) {
	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = 640 * mb
	pcfg.KeepAlive = 0
	eng := sim.NewEngine()
	rec := obs.NewRecorder()
	cfg := testManagerConfig()
	cfg.LowThreshold = 0.01
	cfg.HighThreshold = 0.01
	cfg.Injector = failEvery{}
	p, mgr, err := NewMachine(eng, pcfg, &cfg, record(rec))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"image-resize", "fft", "sort"}
	for i, name := range names {
		newFrozenInstance(t, p, name, i+1)
	}
	eng.RunUntil(sim.Time(10 * sim.Second))
	mgr.Stop()

	st := mgr.Stats()
	if st.FailedReclaims <= int64(2*len(names)) || st.Retries != int64(2*len(names)) {
		t.Fatalf("failed %d, retries %d; want more than %d failures and %d retries",
			st.FailedReclaims, st.Retries, 2*len(names), 2*len(names))
	}
	began := map[int]map[sim.Time]bool{}
	retries := map[int]int{}
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvReclaimBegin:
			if began[ev.Inst] == nil {
				began[ev.Inst] = map[sim.Time]bool{}
			}
			began[ev.Inst][ev.Time] = true
		case obs.EvReclaimRetry:
			retries[ev.Inst]++
			n := retries[ev.Inst]
			if ev.Aux != int64(n) || ev.Dur != sim.Duration(n)*250*sim.Millisecond {
				t.Fatalf("instance %d retry %d: attempt %d after %v, want attempt %d after %v",
					ev.Inst, n, ev.Aux, ev.Dur, n, sim.Duration(n)*250*sim.Millisecond)
			}
			// A retry is scheduled by the failure it answers, in the
			// same instant the failed reclamation began.
			if !began[ev.Inst][ev.Time] {
				t.Fatalf("instance %d retry %d at %v follows no reclamation", ev.Inst, n, ev.Time)
			}
		}
	}
	if len(retries) != len(names) {
		t.Fatalf("%d instances retried, want %d", len(retries), len(names))
	}
	for inst, n := range retries {
		if n != 2 {
			t.Fatalf("instance %d retried %d times, want 2", inst, n)
		}
	}
}
