package calibrate

import (
	"reflect"
	"strings"
	"testing"

	"desiccant/internal/experiments"
)

// TestMetamorphicCoverage pins the suite's shape: every property
// crosses every registered-runtime case at every seed, and the cases
// cover all four runtime implementations.
func TestMetamorphicCoverage(t *testing.T) {
	seeds := []uint64{1, 7}
	cells := metamorphicCells(seeds)
	want := len(properties()) * len(runtimeCases()) * len(seeds)
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	props := map[string]bool{}
	runtimes := map[string]bool{}
	for _, c := range cells {
		props[c.Property] = true
		runtimes[c.Case.Label] = true
	}
	if len(props) < 3 {
		t.Errorf("only %d properties covered, want >= 3", len(props))
	}
	for _, r := range []string{"hotspot", "v8heap", "g1gc", "pyarena"} {
		if !runtimes[r] {
			t.Errorf("runtime %s not covered by the metamorphic suite", r)
		}
	}
}

func TestMetamorphicPropertiesHold(t *testing.T) {
	o := calibrateOptions(experiments.Options{Quick: true})
	o.MetaIterations = 10
	o.MetaSeeds = []uint64{1, 7}
	results := RunMetamorphic(o)
	if len(results) != len(metamorphicCells(o.MetaSeeds)) {
		t.Fatalf("got %d results for %d cells", len(results), len(metamorphicCells(o.MetaSeeds)))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("cell failed: %s", r.Detail)
		}
	}
}

// TestMetamorphicParallelIdentity: the suite must produce identical
// results at any worker count — cells land in per-index slots and are
// read back in index order.
func TestMetamorphicParallelIdentity(t *testing.T) {
	base := calibrateOptions(experiments.Options{Quick: true})
	base.MetaIterations = 6
	base.MetaSeeds = []uint64{1}
	one := base
	one.Parallel = 1
	four := base
	four.Parallel = 4
	a := RunMetamorphic(one)
	b := RunMetamorphic(four)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("metamorphic results differ between -parallel 1 and -parallel 4:\n%v\n%v", a, b)
	}
}

// TestMetamorphicFailureNamesSeed: a failing cell's detail must carry
// the reproducing seed so the report line alone is actionable.
func TestMetamorphicFailureNamesSeed(t *testing.T) {
	cell := cellSpec{
		Property: propZero,
		Case:     runtimeCase{Label: "hotspot", Workload: "no-such-workload"},
		Seed:     42,
	}
	res := evalCell(cell, 4)
	if res.Pass {
		t.Fatalf("cell with unknown workload passed")
	}
	if !strings.Contains(res.Detail, "seed 42") {
		t.Errorf("failure detail %q does not name the reproducing seed", res.Detail)
	}
	if !strings.Contains(res.Detail, "no-such-workload") {
		t.Errorf("failure detail %q does not name the workload", res.Detail)
	}
}

func TestMetamorphicUnknownProperty(t *testing.T) {
	res := evalCell(cellSpec{Property: "not-a-property", Case: runtimeCases()[0], Seed: 1}, 4)
	if res.Pass {
		t.Errorf("unknown property passed")
	}
	if !strings.Contains(res.Detail, "not-a-property") {
		t.Errorf("detail %q does not name the unknown property", res.Detail)
	}
}
