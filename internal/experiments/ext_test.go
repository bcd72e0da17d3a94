package experiments

import (
	"bytes"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func workloadExtras() []*workload.Spec { return workload.Extras() }

func quickTraceOpts() Fig9Options {
	o := DefaultFig9Options()
	o.Warmup = 15 * sim.Second
	o.Replay = 45 * sim.Second
	o.Functions = 400
	return o
}

func TestSnapStartShape(t *testing.T) {
	res, err := RunSnapStart(quickTraceOpts(), 15)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok1 := res.Row("snapstart")
	des, ok2 := res.Row("desiccant")
	van, ok3 := res.Row("vanilla")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("rows missing")
	}
	// SnapStart keeps nothing warm: zero cache memory, restores on
	// (nearly) every invocation chain, and the restore latency lands
	// on the median.
	if snap.CacheMB != 0 {
		t.Fatalf("snapstart cache: %v MB", snap.CacheMB)
	}
	if snap.Restores == 0 {
		t.Fatal("no restores recorded")
	}
	if snap.P50 < des.P50+50 {
		t.Fatalf("snapstart p50 should carry the restore latency: %.1f vs %.1f", snap.P50, des.P50)
	}
	// Desiccant keeps the cache below vanilla while matching warm
	// latency.
	if des.CacheMB > van.CacheMB {
		t.Fatalf("desiccant cache above vanilla: %.1f vs %.1f", des.CacheMB, van.CacheMB)
	}
	if des.P50 > van.P50*1.2 {
		t.Fatalf("desiccant p50 regressed: %.1f vs %.1f", des.P50, van.P50)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "snapstart") {
		t.Fatal("CSV incomplete")
	}
	if _, ok := res.Row("bogus"); ok {
		t.Fatal("bogus row found")
	}
}

func TestIdleActivationPolicy(t *testing.T) {
	o := quickTraceOpts()
	o.Scales = []float64{15}
	base, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.ActivateOnIdleCPU = 4
	o.ManagerConfig = &mcfg
	idle, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := base.Point(SetupDesiccant, 15)
	i, _ := idle.Point(SetupDesiccant, 15)
	// The idle policy reclaims more proactively: no worse on cold
	// boots, at least as much reclamation CPU.
	if i.ColdBootRate > b.ColdBootRate*1.05+1e-9 {
		t.Fatalf("idle policy worsened cold boots: %.4f vs %.4f", i.ColdBootRate, b.ColdBootRate)
	}
	if i.ReclaimOverhead < b.ReclaimOverhead {
		t.Fatalf("idle policy reclaimed less: %.5f vs %.5f", i.ReclaimOverhead, b.ReclaimOverhead)
	}
}

func TestFig9ShapeQuick(t *testing.T) {
	o := quickTraceOpts()
	o.Scales = []float64{15}
	res, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Point(SetupVanilla, 15)
	d, _ := res.Point(SetupDesiccant, 15)
	e, _ := res.Point(SetupEager, 15)
	if v.Completions == 0 || d.Completions == 0 || e.Completions == 0 {
		t.Fatal("empty cells")
	}
	// The headline: Desiccant cuts cold boots versus vanilla.
	if d.ColdBootRate >= v.ColdBootRate {
		t.Fatalf("no cold-boot reduction: %.4f vs %.4f", d.ColdBootRate, v.ColdBootRate)
	}
	// Reclamation CPU overhead is small (paper: ≤6.2%).
	if d.ReclaimOverhead > 0.062 {
		t.Fatalf("reclaim overhead: %.4f", d.ReclaimOverhead)
	}
	// Desiccant's CPU utilization does not exceed vanilla's.
	if d.CPUUtilization > v.CPUUtilization*1.05 {
		t.Fatalf("cpu: %.4f vs %.4f", d.CPUUtilization, v.CPUUtilization)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	res.WriteFig10CSV(&buf, []float64{15})
	if !strings.Contains(buf.String(), "p99_ms") {
		t.Fatal("fig10 CSV missing")
	}
}

func TestPrewarmComposition(t *testing.T) {
	res, err := RunPrewarm(quickTraceOpts(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	neither, _ := res.Row(false, false)
	both, _ := res.Row(true, true)
	pwOnly, _ := res.Row(true, false)
	// Pre-warming alone records stem-cell hits; combined with
	// Desiccant the cold-boot rate is at its lowest — the §6.1
	// orthogonality claim.
	if pwOnly.PrewarmHits == 0 {
		t.Fatal("prewarm pool never used")
	}
	if both.ColdBootRate > neither.ColdBootRate {
		t.Fatalf("composition regressed: %.4f vs %.4f", both.ColdBootRate, neither.ColdBootRate)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "prewarm,desiccant") {
		t.Fatal("CSV incomplete")
	}
	if _, ok := res.Row(true, false); !ok {
		t.Fatal("row lookup failed")
	}
}

func TestPythonExtensionShape(t *testing.T) {
	opts := DefaultSingleOptions()
	opts.Iterations = 40
	res, err := RunFig7(workloadExtras(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// §7: Desiccant must beat the stock CPython collector (eager)
		// because only it can release fragmented arena pages.
		if row.ReductionVsEager() < 1.05 {
			t.Errorf("%s: desiccant no better than stock GC (%.2fx)", row.Function, row.ReductionVsEager())
		}
		if row.GapToIdeal() > 0.10 {
			t.Errorf("%s: gap to ideal %.1f%%", row.Function, 100*row.GapToIdeal())
		}
	}
}

func TestRegistryRunsEveryExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is minutes of work")
	}
	for _, e := range List() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.Name, &buf, Options{Quick: true}); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
		})
	}
	if err := Run("nope", &bytes.Buffer{}, Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	WriteTable1(&buf)
	if got := strings.Count(buf.String(), "\n"); got != 21 { // header + 20
		t.Fatalf("table1 lines: %d", got)
	}
	buf.Reset()
	WriteTable2(&buf)
	if !strings.Contains(buf.String(), "fig9") || !strings.Contains(buf.String(), "ext-snapstart") {
		t.Fatal("table2 incomplete")
	}
}
