package obs_test

// Golden byte-for-byte exporter tests: a fixed-seed platform scenario
// is replayed and its Perfetto and CSV exports compared against files
// committed under testdata/. Any nondeterminism — map iteration order
// leaking into output, float formatting drift, unstable subscriber
// order — shows up as a byte diff. Regenerate with
//
//	go test ./internal/obs -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/faas"
	"desiccant/internal/obs"
	invtrace "desiccant/internal/obs/trace"
	"desiccant/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenScenario replays a small fixed workload with the full
// observability stack attached and returns the Perfetto and CSV
// export bytes.
func goldenScenario(t *testing.T) (traceJSON, metricsCSV []byte) {
	t.Helper()
	eng := sim.NewEngine()
	rec := obs.NewRecorder()
	rec.Ignore(obs.EvEngineFire)
	reg := obs.NewRegistry()

	pcfg := faas.DefaultConfig()
	pcfg.CacheBytes = 512 << 20
	pcfg.KeepAlive = 8 * sim.Second

	mcfg := core.DefaultConfig()
	mcfg.LowThreshold = 0.20
	mcfg.HighThreshold = 0.30
	mcfg.FreezeTimeout = 1 * sim.Second
	platform, mgr, err := core.NewMachine(eng, pcfg, &mcfg, func(p *faas.Platform, _ *core.Manager) {
		bus := p.Events()
		bus.Subscribe(rec)
		bus.Subscribe(obs.NewCollector(reg))
		obs.InstrumentEngine(bus, eng)
	})
	if err != nil {
		t.Fatal(err)
	}

	var ms bytes.Buffer
	sampler := obs.NewSampler(eng, reg, 1*sim.Second, &ms)

	// A staggered mix: enough frozen footprint to trip the manager,
	// repeats to show thaws, and a tail quiet enough for keep-alive.
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
	sampler.Stop()

	var tr bytes.Buffer
	if err := invtrace.WritePerfetto(&tr, rec.Events(), nil); err != nil {
		t.Fatal(err)
	}
	if err := sampler.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr.Bytes(), ms.Bytes()
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

func TestGoldenExports(t *testing.T) {
	traceJSON, metricsCSV := goldenScenario(t)
	checkGolden(t, "golden_trace.json", traceJSON)
	checkGolden(t, "golden_metrics.csv", metricsCSV)
}

// TestGoldenScenarioRepeatable re-runs the scenario in-process and
// demands byte equality — determinism independent of the committed
// files.
func TestGoldenScenarioRepeatable(t *testing.T) {
	t1, m1 := goldenScenario(t)
	t2, m2 := goldenScenario(t)
	if !bytes.Equal(t1, t2) {
		t.Fatal("trace export differs between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics export differs between identical runs")
	}
}

func TestWritePerfettoProducesValidJSON(t *testing.T) {
	events := []obs.Event{
		{Time: 0, Kind: obs.EvColdBoot, Inst: 3, Name: "fft", Dur: 300000, Bytes: 256 << 20},
		{Time: 400000, Kind: obs.EvInvokeStart, Inst: 3, Name: "fft", Dur: 50000},
		{Time: 450000, Kind: obs.EvInvokeComplete, Inst: 3, Name: "fft", Dur: 450000},
		{Time: 500000, Kind: obs.EvFreeze, Inst: 3, Name: "fft", Bytes: 100 << 20},
		{Time: 900000, Kind: obs.EvReclaimBegin, Inst: 3, Name: "fft"},
		{Time: 950000, Kind: obs.EvReclaimEnd, Inst: 3, Name: "fft", Dur: 50000, Bytes: 80 << 20},
		{Time: 960000, Kind: obs.EvWarning, Inst: -1, Name: `quote " and \ backslash`},
	}
	var buf bytes.Buffer
	if err := invtrace.WritePerfetto(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// Must contain the metadata, the span pair, and one flow s/f pair.
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	joined := strings.Join(phases, "")
	for _, needed := range []string{"M", "X", "i", "s", "f"} {
		if !strings.Contains(joined, needed) {
			t.Fatalf("no %q phase in trace (phases %v)", needed, phases)
		}
	}
	// The escaped warning survived the round trip.
	if !strings.Contains(buf.String(), `quote \" and \\ backslash`) {
		t.Fatal("string escaping broken")
	}
}
