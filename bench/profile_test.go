package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.layers from the committed profiles")

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"desiccant/internal/experiments.runIndexed[go.shape.struct { Setup desiccant/internal/experiments.Setup; Scale float64 }].func1", "experiments"},
		{"desiccant/internal/experiments.runIndexed[go.shape.int64].func1", "experiments"},
		{"desiccant/internal/obs/trace.(*Builder).Observe", "obs"},
		{"desiccant/internal/osmem.(*Region).Touch", "osmem"},
		{"desiccant/internal/runtime.(*Instance).Invoke", "runtime"},
		{"runtime.mallocgc", "go"},
		{"runtime.gcBgMarkWorker", "go"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "go"},
		{"main.timedRep", "bench"},
		{"sort.insertionSort", ""},
		{"crypto/sha256.block", ""},
	} {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestAttributeStacks(t *testing.T) {
	const p = modulePrefix
	stacks := [][]string{
		// Go runtime leaf under osmem: self go, cumulative osmem too.
		{"runtime.mallocgc", p + "osmem.(*Region).Touch", p + "experiments.ForEach.func1", "runtime.goexit"},
		// Standard-library leaf: charged to the nearest layer.
		{"sort.insertionSort", p + "osmem.(*AddressSpace).Usage", p + "faas.(*Platform).cachedUSS", "main.main", "runtime.main", "runtime.goexit"},
		// A GC worker has no frame outside the runtime.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
		// A loss evaluation of the fit on a pool goroutine.
		{p + "workload.allocTemps", p + "calibrate.characterize.func1", p + "experiments.ForEach.func1", "runtime.goexit"},
		{p + "metrics.(*Histogram).Observe", p + "obs/trace.(*Builder).Observe", p + "calibrate.RunMetamorphic.func1"},
	}
	tbl := attributeStacks(stacks, []int64{1e9, 2e9, 3e9, 4e9, 5e9})
	checks := []struct {
		name      string
		got, want float64
	}{
		{"total", tbl.Total, 15},
		{"go self", tbl.Self["go"], 4}, {"go cum", tbl.Cum["go"], 4},
		{"osmem self", tbl.Self["osmem"], 2}, {"osmem cum", tbl.Cum["osmem"], 3},
		{"faas cum", tbl.Cum["faas"], 2},
		{"bench cum", tbl.Cum["bench"], 2},
		{"workload self", tbl.Self["workload"], 4},
		{"metrics self", tbl.Self["metrics"], 5}, {"obs cum", tbl.Cum["obs"], 5},
		{"osmem read", tbl.OsmemRead, 2}, {"osmem write", tbl.OsmemWrite, 1},
		{"fit", tbl.Fit, 4}, {"metamorphic", tbl.Metamorphic, 5},
		{"calibrate cum", tbl.Cum["calibrate"], 9}, {"calibrate self", tbl.Self["calibrate"], 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestAttributeGolden decodes a profile of one characterize rep and
// checks its layer table against the committed one.
func TestAttributeGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "characterize.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tbl, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]string, 0, len(tbl.Cum))
	for l := range tbl.Cum {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	var selfSum float64
	fmt.Fprintf(&b, "total %.2f\n", tbl.Total)
	for _, l := range layers {
		fmt.Fprintf(&b, "%-12s self %.2f cum %.2f\n", l, tbl.Self[l], tbl.Cum[l])
		selfSum += tbl.Self[l]
	}
	fmt.Fprintf(&b, "osmem.read %.2f osmem.write %.2f fit %.2f metamorphic %.2f\n",
		tbl.OsmemRead, tbl.OsmemWrite, tbl.Fit, tbl.Metamorphic)
	if math.Abs(selfSum-tbl.Total) > 1e-9 {
		t.Errorf("self shares sum to %.2f%% of the profile", 100*selfSum/tbl.Total)
	}

	golden := filepath.Join("testdata", "characterize.layers")
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("layer table differs from %s:\ngot:\n%s\nwant:\n%s", golden, b.String(), want)
	}
}
