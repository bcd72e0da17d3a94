package trace

import (
	"math"
	"testing"
	"testing/quick"

	"desiccant/internal/faas"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func TestGenerateShape(t *testing.T) {
	tr := Generate(GenConfig{Seed: 1, Functions: 5000})
	if len(tr.Entries) != 5000 {
		t.Fatalf("entries: %d", len(tr.Entries))
	}
	var periodic, poisson, bursty int
	var durSum float64
	ids := map[string]bool{}
	for _, e := range tr.Entries {
		switch e.Pattern {
		case Periodic:
			periodic++
		case Poisson:
			poisson++
		case Bursty:
			bursty++
		}
		if e.AvgDurationMillis < 1 || e.AvgDurationMillis > 120_000 {
			t.Fatalf("duration out of range: %v", e.AvgDurationMillis)
		}
		if e.MeanIATSeconds < 1 || e.MeanIATSeconds > 6*3600 {
			t.Fatalf("IAT out of range: %v", e.MeanIATSeconds)
		}
		if e.MemoryMB < 128 || e.MemoryMB > 1024 {
			t.Fatalf("memory out of range: %d", e.MemoryMB)
		}
		durSum += e.AvgDurationMillis
		ids[e.ID] = true
	}
	// Pattern mix ~45/40/15.
	if f := float64(periodic) / 5000; f < 0.40 || f > 0.50 {
		t.Fatalf("periodic fraction: %v", f)
	}
	if f := float64(bursty) / 5000; f < 0.10 || f > 0.20 {
		t.Fatalf("bursty fraction: %v", f)
	}
	// Log-normal tail: the mean should far exceed the median (~300ms).
	if mean := durSum / 5000; mean < 500 {
		t.Fatalf("duration distribution lost its tail: mean %vms", mean)
	}
	if len(ids) < 4990 {
		t.Fatalf("IDs not unique enough: %d", len(ids))
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(GenConfig{Seed: 9, Functions: 100})
	b := Generate(GenConfig{Seed: 9, Functions: 100})
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d diverged", i)
		}
	}
	c := Generate(GenConfig{Seed: 10, Functions: 100})
	same := 0
	for i := range a.Entries {
		if a.Entries[i].ID == c.Entries[i].ID {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds correlated: %d", same)
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Generate(GenConfig{Seed: 1, Functions: 0})
}

func TestNormalizeRateInvalidTarget(t *testing.T) {
	as := Match(Generate(GenConfig{Seed: 1, Functions: 100}), workload.All())
	for _, target := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalizeRate(%v): no panic", target)
				}
			}()
			NormalizeRate(as, target)
		}()
	}
}

func TestMatchPicksClosestDurations(t *testing.T) {
	tr := Generate(GenConfig{Seed: 3, Functions: 3000})
	specs := workload.All()
	as := Match(tr, specs)
	if len(as) != len(specs) {
		t.Fatalf("assignments: %d", len(as))
	}
	used := map[string]bool{}
	for i, a := range as {
		if a.Spec != specs[i] {
			t.Fatal("assignment order diverged from input order")
		}
		if used[a.Entry.ID] {
			t.Fatalf("entry %s assigned twice", a.Entry.ID)
		}
		used[a.Entry.ID] = true
		// With 3000 candidates the match should be reasonably close.
		want := a.Spec.TotalExecTime().Millis()
		if diff := math.Abs(a.Entry.AvgDurationMillis - want); diff > want {
			t.Errorf("%s: matched %vms to %vms", a.Spec.Name, a.Entry.AvgDurationMillis, want)
		}
	}
}

func TestMatchChainUsesTotalTime(t *testing.T) {
	// A chain's assignment must match the whole-chain duration, not a
	// single stage (§5.3: "select one function from the trace whose
	// execution time is close to the overall time for the whole chain").
	tr := Generate(GenConfig{Seed: 4, Functions: 3000})
	alexa, _ := workload.Lookup("alexa")
	as := Match(tr, []*workload.Spec{alexa})
	want := alexa.TotalExecTime().Millis()
	got := as[0].Entry.AvgDurationMillis
	if math.Abs(got-want) > want/2 {
		t.Fatalf("chain match: got %vms want ~%vms", got, want)
	}
}

func TestNormalizeRate(t *testing.T) {
	tr := Generate(GenConfig{Seed: 5, Functions: 1000})
	as := Match(tr, workload.All())
	NormalizeRate(as, 2.2)
	var total float64
	for _, a := range as {
		total += a.Entry.Rate()
	}
	if math.Abs(total-2.2) > 1e-9 {
		t.Fatalf("normalized rate: %v", total)
	}
}

func TestNormalizeRateProperty(t *testing.T) {
	f := func(seed uint64, targetCenti uint16) bool {
		target := float64(targetCenti%1000+1) / 100
		tr := Generate(GenConfig{Seed: seed, Functions: 50})
		as := Match(tr, workload.All()[:5])
		NormalizeRate(as, target)
		var total float64
		for _, a := range as {
			total += a.Entry.Rate()
		}
		return math.Abs(total-target) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReplaySchedulesScaledArrivals(t *testing.T) {
	cfg := faas.DefaultConfig()
	cfg.CacheBytes = 8 << 30
	eng := sim.NewEngine()
	p := faas.New(cfg, eng)

	tr := Generate(GenConfig{Seed: 6, Functions: 2000})
	as := Match(tr, workload.All())
	NormalizeRate(as, 2.0)

	rp := NewReplayer(p, as, 42)
	window := sim.Time(60 * sim.Second)
	n1 := rp.Schedule(0, window, 1)
	// Expected ~120 requests at 2 req/s over 60s.
	if n1 < 60 || n1 > 260 {
		t.Fatalf("scale-1 requests: %d", n1)
	}

	rp2 := NewReplayer(p, as, 42)
	n10 := rp2.Schedule(window, window*2, 10)
	if n10 < 7*n1 || n10 > 14*n1 {
		t.Fatalf("scale-10 should be ~10x scale-1: %d vs %d", n10, n1)
	}
}

func TestReplayDrivesPlatform(t *testing.T) {
	cfg := faas.DefaultConfig()
	cfg.CacheBytes = 4 << 30
	eng := sim.NewEngine()
	p := faas.New(cfg, eng)

	tr := Generate(GenConfig{Seed: 7, Functions: 2000})
	as := Match(tr, workload.All())
	NormalizeRate(as, 2.0)
	NewReplayer(p, as, 1).Schedule(0, sim.Time(30*sim.Second), 5)
	eng.RunUntil(sim.Time(60 * sim.Second))

	st := p.Stats()
	if st.Requests == 0 || st.Completions == 0 {
		t.Fatalf("replay did not drive the platform: %+v", st)
	}
	if st.Completions < st.Requests*8/10 {
		t.Fatalf("too few completions: %d of %d", st.Completions, st.Requests)
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Periodic: "periodic", Poisson: "poisson", Bursty: "bursty", Pattern(9): "pattern(?)",
	} {
		if p.String() != want {
			t.Errorf("%d: %q", int(p), p.String())
		}
	}
}
