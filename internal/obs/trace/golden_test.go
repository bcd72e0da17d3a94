package trace_test

// Golden byte-for-byte attribution exports plus the sum-exactness
// differential: a fixed-seed platform replay is folded into spans and
// the CSV/summary bytes compared against testdata/. Regenerate with
//
//	go test ./internal/obs/trace -run TestGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs/trace"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenSpans replays the same staggered mix as the obs golden
// scenario with the span builder attached and returns the closed
// spans.
func goldenSpans(t *testing.T) []*trace.Span {
	t.Helper()
	eng := sim.NewEngine()
	builder := trace.NewBuilder()

	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = 512 << 20
	pcfg.KeepAlive = 8 * sim.Second

	mcfg := core.DefaultConfig()
	mcfg.LowThreshold = 0.20
	mcfg.HighThreshold = 0.30
	mcfg.FreezeTimeout = 1 * sim.Second
	platform, mgr, err := core.NewMachine(eng, pcfg, &mcfg, func(p *faas.Platform, _ *core.Manager) {
		builder.Attach(p.Events())
	})
	if err != nil {
		t.Fatal(err)
	}

	submits := []struct {
		fn string
		at sim.Duration
	}{
		{"image-resize", 0},
		{"fft", 500 * sim.Millisecond},
		{"sort", 1 * sim.Second},
		{"matrix", 2 * sim.Second},
		{"fft", 4 * sim.Second},
		{"clock", 5 * sim.Second},
		{"image-resize", 6 * sim.Second},
	}
	for _, s := range submits {
		if err := platform.SubmitName(s.fn, sim.Time(s.at)); err != nil {
			t.Fatal(err)
		}
	}

	eng.RunUntil(sim.Time(20 * sim.Second))
	mgr.Stop()
	if open := builder.OpenCount(); open != 0 {
		t.Fatalf("%d spans still open after the window", open)
	}
	spans := builder.Spans()
	if err := trace.CheckExact(spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(submits) {
		t.Fatalf("got %d spans, want %d", len(spans), len(submits))
	}
	return spans
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (%d vs %d bytes); inspect with a diff, regenerate with -update if intended",
			name, len(got), len(want))
	}
}

func TestGoldenAttribution(t *testing.T) {
	spans := goldenSpans(t)
	var csv, sum bytes.Buffer
	if err := trace.WriteCSV(&csv, spans); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSummary(&sum, spans); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_attr.csv", csv.Bytes())
	checkGolden(t, "golden_summary.txt", sum.Bytes())
}

// TestGoldenAttributionRepeatable re-runs the scenario in-process and
// demands byte equality — determinism independent of the committed
// files.
func TestGoldenAttributionRepeatable(t *testing.T) {
	s1, s2 := goldenSpans(t), goldenSpans(t)
	var c1, c2 bytes.Buffer
	if err := trace.WriteCSV(&c1, s1); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(&c2, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("attribution CSV differs between identical runs")
	}
}

// TestSumExactnessDifferential drives ~1k invocations drawn from the
// full workload table through a managed platform and demands, for
// every single span, that the phase durations sum exactly to the
// end-to-end latency the platform itself reported — the paper-grade
// "attribution adds up" invariant, checked at scale rather than on
// hand-picked lifecycles.
func TestSumExactnessDifferential(t *testing.T) {
	const requests = 1000
	window := 300 * sim.Second

	eng := sim.NewEngine()
	builder := trace.NewBuilder()

	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = 1 << 30
	mcfg := core.DefaultConfig()
	platform, mgr, err := core.NewMachine(eng, pcfg, &mcfg, func(p *faas.Platform, _ *core.Manager) {
		builder.Attach(p.Events())
	})
	if err != nil {
		t.Fatal(err)
	}

	specs := workload.All()
	rng := sim.NewRNG(0x5eedf00d)
	for i := 0; i < requests; i++ {
		at := sim.Time(rng.Int63n(int64(window)))
		platform.Submit(specs[rng.Intn(len(specs))], at)
	}

	eng.RunUntil(sim.Time(window))
	mgr.Stop()
	// Drain the in-flight tail so every span closes.
	drainEnd := sim.Time(window)
	for i := 0; i < 240 && builder.OpenCount() > 0; i++ {
		if _, ok := eng.Next(); !ok {
			break
		}
		drainEnd = drainEnd.Add(sim.Second)
		eng.RunUntil(drainEnd)
	}
	if open := builder.OpenCount(); open != 0 {
		t.Fatalf("%d spans still open after drain", open)
	}

	spans := builder.Spans()
	st := platform.Stats()
	if int64(len(spans)) != st.Requests {
		t.Fatalf("span conservation: %d spans != %d submitted", len(spans), st.Requests)
	}
	if err := trace.CheckExact(spans); err != nil {
		t.Fatal(err)
	}
	// CheckExact already equates phase sum, segment tiling, and the
	// platform's reported latency per span; cross-foot the grand totals
	// independently as a second witness.
	var phaseSum, totalSum sim.Duration
	for _, s := range spans {
		totalSum += s.Total()
		for p := trace.Phase(0); p < trace.Phase(trace.NumPhases()); p++ {
			phaseSum += s.Phases[p]
		}
	}
	if phaseSum != totalSum {
		t.Fatalf("grand phase total %d != grand latency total %d", phaseSum, totalSum)
	}
	var completed, dropped int64
	for _, s := range spans {
		if s.Outcome == trace.Completed {
			completed++
		} else {
			dropped++
		}
	}
	if completed != st.Completions || dropped != st.Drops {
		t.Fatalf("outcome conservation: spans %d/%d vs platform %d/%d",
			completed, dropped, st.Completions, st.Drops)
	}
}
