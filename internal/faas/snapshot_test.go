package faas

import (
	"testing"

	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func TestSnapshotModeNeverCaches(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = true
	eng, p := newPlatform(t, cfg)
	spec, _ := workload.Lookup("sort")
	for i := 0; i < 5; i++ {
		p.Submit(spec, sim.Time(i)*sim.Time(3*sim.Second))
	}
	eng.Run()
	st := p.Stats()
	if st.Completions != 5 {
		t.Fatalf("completions: %d", st.Completions)
	}
	// Every request restored a snapshot; nothing is cached.
	if st.Restores != 5 || st.ColdBoots != 5 {
		t.Fatalf("restores=%d coldboots=%d", st.Restores, st.ColdBoots)
	}
	if st.WarmStarts != 0 {
		t.Fatalf("warm starts in snapshot mode: %d", st.WarmStarts)
	}
	if p.CachedCount() != 0 || p.MemoryUsed() != 0 {
		t.Fatal("snapshot mode cached instances")
	}
}

func TestSnapshotLatencyCarriesRestoreNotBoot(t *testing.T) {
	cfg := testConfig()
	cfg.Snapshot = true
	eng, p := newPlatform(t, cfg)
	if err := p.SubmitName("clock", 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := p.Stats()
	// Restore is 150ms; a JS cold boot would be 300ms. The hydrated
	// instance also skips the first-invocation init spike.
	if min := st.Latency.Min(); min < 150 || min > 260 {
		t.Fatalf("snapshot latency: %.1fms", min)
	}
}

func TestPrewarmPoolServesAndReplenishes(t *testing.T) {
	cfg := testConfig()
	cfg.PrewarmPerLanguage = 2
	eng, p := newPlatform(t, cfg)
	if p.PrewarmedCount(runtime.JavaScript) != 2 || p.PrewarmedCount(runtime.Java) != 2 {
		t.Fatalf("initial pools: js=%d java=%d",
			p.PrewarmedCount(runtime.JavaScript), p.PrewarmedCount(runtime.Java))
	}
	if err := p.SubmitName("fft", 0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	st := p.Stats()
	if st.PrewarmHits != 1 {
		t.Fatalf("prewarm hits: %d", st.PrewarmHits)
	}
	// The first boot was a stem-cell assignment (80ms) instead of a
	// full JS cold boot (300ms): compare against an identical run
	// without the pool.
	cfgCold := testConfig()
	engCold := sim.NewEngine()
	pCold := New(cfgCold, engCold)
	if err := pCold.SubmitName("fft", 0); err != nil {
		t.Fatal(err)
	}
	engCold.RunUntil(sim.Time(2 * sim.Second))
	saved := pCold.Stats().Latency.Max() - st.Latency.Max()
	if saved < 150 {
		t.Fatalf("prewarming saved only %.1fms (prewarmed %.1f vs cold %.1f)",
			saved, st.Latency.Max(), pCold.Stats().Latency.Max())
	}
	// The pool replenishes in the background.
	eng.RunUntil(sim.Time(10 * sim.Second))
	if p.PrewarmedCount(runtime.JavaScript) != 2 {
		t.Fatalf("pool not replenished: %d", p.PrewarmedCount(runtime.JavaScript))
	}
}

func TestPythonFunctionOnPlatform(t *testing.T) {
	eng, p := newPlatform(t, testConfig())
	if err := p.SubmitName("py-etl", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitName("py-etl", sim.Time(3*sim.Second)); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := p.Stats()
	if st.Completions != 2 || st.ColdBoots != 1 || st.WarmStarts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
