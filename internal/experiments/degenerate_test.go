package experiments

import (
	"math"
	"strings"
	"testing"

	"desiccant/internal/core"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// degenerateSpecs are legal-but-extreme workloads: a function that
// allocates nothing, one whose whole allocation volume is live at
// once (live fraction 1), and one with no memory at all. The single
// harness must keep every reported statistic finite on them — the
// ratio distribution drops non-finite samples instead of averaging
// them (the histogram rejection path).
func degenerateSpecs() []*workload.Spec {
	return []*workload.Spec{
		{
			Name: "no-alloc", Language: runtime.Java,
			ChainLength: 1, ExecTime: sim.Millisecond,
			InitAllocBytes: 4 << 20, StaticBytes: 1 << 20,
			AllocPerInvoke: 0, WorkingSet: 0, ObjectSize: 16 << 10,
			NonHeapBytes: 4 << 20,
		},
		{
			Name: "all-live", Language: runtime.JavaScript,
			ChainLength: 1, ExecTime: sim.Millisecond,
			InitAllocBytes: 2 << 20, StaticBytes: 1 << 20,
			AllocPerInvoke: 8 << 20, WorkingSet: 10 << 20, ObjectSize: 64 << 10,
			NonHeapBytes: 2 << 20,
		},
		{
			Name: "no-memory", Language: runtime.Java,
			ChainLength: 1, ExecTime: sim.Millisecond,
			InitAllocBytes: 0, StaticBytes: 0,
			AllocPerInvoke: 0, WorkingSet: 0, ObjectSize: 1,
			NonHeapBytes: 0,
		},
	}
}

func TestDegenerateSpecsStayFinite(t *testing.T) {
	for _, spec := range degenerateSpecs() {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: degenerate spec should be legal: %v", spec.Name, err)
		}
		for _, mode := range []Mode{Vanilla, Desiccant} {
			o := DefaultSingleOptions()
			o.Iterations = 6
			o.Seed = 1
			o.Parallel = 1
			r, err := RunSingle(spec, mode, o)
			if err != nil {
				t.Fatalf("%s/%v: RunSingle: %v", spec.Name, mode, err)
			}
			for name, v := range map[string]float64{
				"AvgRatio": r.AvgRatio(),
				"MaxRatio": r.MaxRatio(),
				"FinalPSS": r.FinalPSS,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s/%v: %s = %v, want finite", spec.Name, mode, name, v)
				}
			}
			for _, uss := range r.USSCurve {
				if uss < 0 {
					t.Errorf("%s/%v: negative USS sample %d", spec.Name, mode, uss)
				}
			}
		}
	}
}

// TestNoMemorySpecRejectsRatioSamples: with a zero ideal footprint
// every USS/ideal ratio is 0/0 or n/0; all of them must land in the
// distribution's rejection counter and the summary statistics must
// fall back to zero rather than NaN.
func TestNoMemorySpecRejectsRatioSamples(t *testing.T) {
	spec := degenerateSpecs()[2]
	o := DefaultSingleOptions()
	o.Iterations = 6
	o.Seed = 1
	o.Parallel = 1
	r, err := RunSingle(spec, Vanilla, o)
	if err != nil {
		t.Fatalf("RunSingle: %v", err)
	}
	ideal := r.FinalIdeal()
	if ideal != 0 {
		t.Skipf("runtime reports nonzero ideal footprint %d for the empty spec", ideal)
	}
	if r.RatioRejections() == 0 {
		t.Errorf("zero-ideal run recorded no ratio rejections")
	}
	if got := r.AvgRatio(); got != 0 {
		t.Errorf("AvgRatio = %v with every sample rejected, want 0", got)
	}
	if got := r.MaxRatio(); got != 0 {
		t.Errorf("MaxRatio = %v with every sample rejected, want 0", got)
	}
}

// TestReplayRunnersRejectDegenerateTraces checks that the
// single-machine replays fail with an error naming the field, before
// anything is scheduled, on a trace no replay can run: a NaN or
// infinite scale used to submit every function once per microsecond
// forever, and a zero base rate or population panicked. A manager that
// cannot run is rejected the same way.
func TestReplayRunnersRejectDegenerateTraces(t *testing.T) {
	fig9 := func(edit func(*Fig9Options)) error {
		o := DefaultFig9Options()
		edit(&o)
		_, err := RunFig9(o)
		return err
	}
	observe := func(run func(ObserveOptions, ObserveOutputs) error, edit func(*ObserveOptions)) func() error {
		return func() error {
			o := observeOptions(Options{})
			edit(&o)
			return run(o, ObserveOutputs{})
		}
	}
	cases := []struct {
		name, field string
		run         func() error
	}{
		{"fig9 scale NaN", "Scale", func() error { return fig9(func(o *Fig9Options) { o.Scales = []float64{15, math.NaN()} }) }},
		{"fig9 base rate 0", "BaseRate", func() error { return fig9(func(o *Fig9Options) { o.BaseRate = 0 }) }},
		{"fig9 functions 0", "Functions", func() error { return fig9(func(o *Fig9Options) { o.Functions = 0 }) }},
		{"fig9 manager MaxConcurrent 0", "MaxConcurrent", func() error {
			return fig9(func(o *Fig9Options) { m := core.DefaultConfig(); m.MaxConcurrent = 0; o.ManagerConfig = &m })
		}},
		{"snapstart scale +Inf", "Scale", func() error { _, err := RunSnapStart(DefaultFig9Options(), math.Inf(1)); return err }},
		{"prewarm scale 0", "Scale", func() error { _, err := RunPrewarm(DefaultFig9Options(), 0); return err }},
		{"observe scale +Inf", "Scale", observe(RunObserve, func(o *ObserveOptions) { o.Scale = math.Inf(1) })},
		{"observe base rate NaN", "BaseRate", observe(RunObserve, func(o *ObserveOptions) { o.BaseRate = math.NaN() })},
		{"trace scale NaN", "Scale", observe(RunAttrTrace, func(o *ObserveOptions) { o.Scale = math.NaN() })},
		{"trace functions 0", "Functions", observe(RunAttrTrace, func(o *ObserveOptions) { o.Functions = 0 })},
	}
	for _, c := range cases {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err %v, want one naming %s", c.name, err, c.field)
		}
	}
}
