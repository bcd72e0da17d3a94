package experiments

import (
	"bytes"
	"strings"
	"testing"

	"desiccant/internal/metrics"
	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

// Shape tests for the remaining figures: quick-size runs asserting the
// qualitative claims each figure makes, so a model regression that
// flips a figure's story fails CI even without the full-size CSVs.

func TestFig8Shape(t *testing.T) {
	opts := quickOpts()
	res, err := RunFig8("fft", []int{1, 2, 8}, opts)
	if err != nil {
		t.Fatal(err)
	}
	one, two, eight := res.Points[0], res.Points[1], res.Points[2]
	// At one instance the libraries are private: both RSS and PSS
	// improve strongly (paper: 4.16×).
	if one.RSSImprovement() < 3 || one.PSSImprovement() < 3 {
		t.Fatalf("single-instance improvements too small: rss=%.2f pss=%.2f",
			one.RSSImprovement(), one.PSSImprovement())
	}
	// With co-tenants the libraries stay mapped (the refcount check
	// blocks the unmap) but amortize: per-instance PSS falls towards
	// USS as the instance count grows (paper: "PSS gradually
	// approaches USS").
	if two.DesiccantPSS < float64(two.DesiccantUSS) || eight.DesiccantPSS < float64(eight.DesiccantUSS) {
		t.Fatal("PSS below USS is impossible")
	}
	if eight.DesiccantPSS >= two.DesiccantPSS {
		t.Fatalf("PSS did not fall towards USS: %.0f (8 inst) vs %.0f (2 inst)",
			eight.DesiccantPSS, two.DesiccantPSS)
	}
	// RSS per instance is unchanged by co-tenancy.
	if diff := float64(eight.VanillaRSS-two.VanillaRSS) / float64(two.VanillaRSS); diff > 0.1 || diff < -0.1 {
		t.Fatalf("vanilla RSS changed with instance count: %d vs %d", eight.VanillaRSS, two.VanillaRSS)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "instances,") {
		t.Fatal("CSV header missing")
	}
	// fig8 requires a plain function.
	if _, err := RunFig8("mapreduce", []int{1}, opts); err == nil {
		t.Fatal("chain accepted")
	}
	if _, err := RunFig8("nope", []int{1}, opts); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestFig11Shape(t *testing.T) {
	opts := quickOpts()
	res, err := RunFig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	// image-pipeline is excluded (§5.4).
	for _, row := range res.Fig7.Rows {
		if strings.HasPrefix(row.Function, "image-pipeline") {
			t.Fatal("image-pipeline must be excluded on Lambda")
		}
	}
	if len(res.Fig7.Rows) != 19 {
		t.Fatalf("rows: %d", len(res.Fig7.Rows))
	}
	// Without library sharing the improvements exceed the OpenWhisk
	// ones (unmap does real work), and JS > Java as in the paper.
	java := res.Fig7.LanguageMeanReduction(runtime.Java, false)
	js := res.Fig7.LanguageMeanReduction(runtime.JavaScript, false)
	if java < 1.5 || js < 1.5 {
		t.Fatalf("lambda improvements too small: %.2f / %.2f", java, js)
	}
	if js <= java {
		t.Fatalf("expected js (%v) > java (%v) on Lambda as in the paper", js, java)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "Lambda") {
		t.Fatal("CSV banner missing")
	}
}

func TestFig12Shape(t *testing.T) {
	opts := quickOpts()
	opts.Iterations = 40
	res, err := RunFig12([]int64{256 << 20, 1024 << 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// clock is flat across budgets (Figure 12c) ...
	c256, _ := Cell(res.Clock, 256, Vanilla)
	c1g, _ := Cell(res.Clock, 1024, Vanilla)
	if c256.USS != c1g.USS {
		t.Fatalf("clock not flat: %d vs %d", c256.USS, c1g.USS)
	}
	// ... while fft's vanilla footprint balloons (Figure 12d) and
	// Desiccant's stays put.
	f256v, _ := Cell(res.FFT, 256, Vanilla)
	f1gv, _ := Cell(res.FFT, 1024, Vanilla)
	f256d, _ := Cell(res.FFT, 256, Desiccant)
	f1gd, _ := Cell(res.FFT, 1024, Desiccant)
	if float64(f1gv.USS) < 1.5*float64(f256v.USS) {
		t.Fatalf("fft vanilla did not grow: %d -> %d", f256v.USS, f1gv.USS)
	}
	if float64(f1gd.USS) > 1.3*float64(f256d.USS) {
		t.Fatalf("fft desiccant grew: %d -> %d", f256d.USS, f1gd.USS)
	}
	if metrics.Ratio(float64(f1gv.USS), float64(f1gd.USS)) < 4 {
		t.Fatalf("fft 1GB reduction too small: %.2f", metrics.Ratio(float64(f1gv.USS), float64(f1gd.USS)))
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "panel,budget_mb") {
		t.Fatal("CSV header missing")
	}
	if _, ok := Cell(res.FFT, 9999, Vanilla); ok {
		t.Fatal("phantom cell")
	}
}

func TestFig13Shape(t *testing.T) {
	opts := fig13Options(Options{})
	opts.WarmIterations = 50
	opts.MeasureIterations = 8
	res, err := RunFig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(workload.All()) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	var swapWorse, aggressiveHit int
	for _, row := range res.Rows {
		if row.SwapSlowdown() > 1.2 {
			swapWorse++
		}
		switch row.Function {
		case "data-analysis (6)", "unionfind":
			if row.AggressiveSlowdown() < 1.3 {
				t.Errorf("%s aggressive slowdown too small: %.2f", row.Function, row.AggressiveSlowdown())
			}
			aggressiveHit++
		default:
			if s := row.AggressiveSlowdown(); s < 0.95 || s > 1.05 {
				t.Errorf("%s without weak caches shows aggressive slowdown %.2f", row.Function, s)
			}
		}
	}
	if aggressiveHit != 2 {
		t.Fatalf("weak-cache functions seen: %d", aggressiveHit)
	}
	// Swapping is worse than Desiccant for most functions (§5.6) —
	// it pushes live pages out.
	if swapWorse < len(res.Rows)/2 {
		t.Fatalf("swap baseline beat Desiccant too often: only %d/%d worse", swapWorse, len(res.Rows))
	}
	// Mean post-reclamation overhead stays in the paper's order of
	// magnitude (8.3% reported; we accept < 30%).
	if m := res.MeanOverhead(); m < 0 || m > 0.30 {
		t.Fatalf("mean overhead out of band: %.1f%%", 100*m)
	}
	var buf bytes.Buffer
	res.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "swap_slowdown") {
		t.Fatal("CSV header missing")
	}
}
