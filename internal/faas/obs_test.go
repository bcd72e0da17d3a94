package faas

import (
	"testing"

	"desiccant/internal/container"
	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// pressureScenario drives a small cache into eviction so every hook
// class (eviction, destroy) fires.
func pressureScenario(t *testing.T, cfg Config) (*sim.Engine, *Platform) {
	t.Helper()
	eng := sim.NewEngine()
	p := New(cfg, eng)
	names := []string{"sort", "fft", "matrix", "file-hash", "pi", "factor"}
	for i, name := range names {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(3*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	return eng, p
}

// TestMultipleHooksAllFire covers the multi-subscriber hook
// registration: every registered observer fires, so a manager and an
// observer can coexist on one platform.
func TestMultipleHooksAllFire(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 96 * mb
	eng, p := pressureScenario(t, cfg)

	var evictA, evictB int
	p.OnEviction(func(n int) { evictA += n })
	p.OnEviction(func(n int) { evictB += n })
	var destroyA, destroyB int
	p.OnDestroy(func(*container.Instance) { destroyA++ })
	p.OnDestroy(func(*container.Instance) { destroyB++ })

	eng.Run()
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("scenario produced no evictions")
	}
	if evictA != int(st.Evictions) || evictB != int(st.Evictions) {
		t.Fatalf("eviction hooks saw %d/%d, want %d each", evictA, evictB, st.Evictions)
	}
	if destroyA == 0 || destroyA != destroyB {
		t.Fatalf("destroy hooks saw %d/%d", destroyA, destroyB)
	}
}

// TestBusAttachmentDoesNotChangeBehavior runs the same scenario with
// and without an observability bus; the platform's own statistics must
// be identical — observation never perturbs the simulation.
func TestBusAttachmentDoesNotChangeBehavior(t *testing.T) {
	run := func(withBus bool) (Stats, int64, int64) {
		cfg := testConfig()
		cfg.CacheBytes = 96 * mb
		var rec *obs.Recorder
		eng := sim.NewEngine()
		if withBus {
			bus := obs.NewBus(eng)
			rec = obs.NewRecorder()
			bus.Subscribe(rec)
			cfg.Events = bus
		}
		p := New(cfg, eng)
		names := []string{"sort", "fft", "matrix", "file-hash", "pi", "factor"}
		for i, name := range names {
			if err := p.SubmitName(name, sim.Time(i)*sim.Time(3*sim.Second)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		var recorded int64
		if rec != nil {
			recorded = int64(rec.Len())
		}
		return *p.Stats(), int64(eng.Fired()), recorded
	}

	plain, firedPlain, _ := run(false)
	observed, firedObs, recorded := run(true)
	if recorded == 0 {
		t.Fatal("bus recorded nothing")
	}
	if firedPlain != firedObs {
		t.Fatalf("engine fired %d events plain vs %d observed", firedPlain, firedObs)
	}
	if plain.Requests != observed.Requests ||
		plain.Completions != observed.Completions ||
		plain.ColdBoots != observed.ColdBoots ||
		plain.WarmStarts != observed.WarmStarts ||
		plain.Evictions != observed.Evictions ||
		plain.CPUBusy != observed.CPUBusy {
		t.Fatalf("stats diverged:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if plain.Latency.Count() != observed.Latency.Count() ||
		plain.Latency.Mean() != observed.Latency.Mean() {
		t.Fatal("latency distribution diverged under observation")
	}
}

// TestBusEventCountsMatchStats cross-checks the event stream against
// the platform's own counters.
func TestBusEventCountsMatchStats(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 96 * mb
	eng := sim.NewEngine()
	bus := obs.NewBus(eng)
	rec := obs.NewRecorder()
	bus.Subscribe(rec)
	cfg.Events = bus
	p := New(cfg, eng)
	names := []string{"sort", "fft", "matrix", "file-hash", "pi", "factor"}
	for i, name := range names {
		if err := p.SubmitName(name, sim.Time(i)*sim.Time(3*sim.Second)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	st := p.Stats()

	checks := []struct {
		kind obs.Kind
		want int64
	}{
		{obs.EvInvokeSubmit, st.Requests},
		{obs.EvInvokeComplete, st.Completions},
		{obs.EvColdBoot, st.ColdBoots},
		{obs.EvThaw, st.WarmStarts},
		{obs.EvEvict, st.Evictions},
	}
	for _, c := range checks {
		if got := rec.CountByKind(c.kind); got != c.want {
			t.Fatalf("%v events = %d, platform counted %d", c.kind, got, c.want)
		}
	}
	if rec.CountByKind(obs.EvFreeze) == 0 {
		t.Fatal("no freeze events")
	}
}
