package faas

import (
	"testing"

	"desiccant/internal/obs"
	"desiccant/internal/sim"
)

// TestBusAttachmentDoesNotChangeBehavior runs the same scenario with
// and without a recorder subscribed to the platform's bus; the
// platform's own statistics must be identical — observation never
// perturbs the simulation.
func TestBusAttachmentDoesNotChangeBehavior(t *testing.T) {
	run := func(subscribe bool) (Stats, int64, int64) {
		cfg := testConfig()
		cfg.CacheBytes = 96 * mb
		eng := sim.NewEngine()
		p := New(cfg, eng)
		var rec *obs.Recorder
		if subscribe {
			rec = obs.NewRecorder()
			p.Events().Subscribe(rec)
		}
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
	p := New(cfg, eng)
	rec := obs.NewRecorder()
	p.Events().Subscribe(rec)
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
