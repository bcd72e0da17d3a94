package calibrate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"desiccant/internal/experiments"
)

// tinyOptions shrinks the quick configuration further so a full
// fit+predict+metamorphic pipeline stays test-sized.
func tinyOptions() Options {
	o := calibrateOptions(experiments.Options{Quick: true})
	o.FitPasses = 1
	o.FitIterations = 5
	o.PredictIterations = 6
	o.MetaIterations = 4
	o.MetaSeeds = []uint64{1}
	return o
}

func TestFitImprovesLossDeterministically(t *testing.T) {
	o := tinyOptions()
	a, err := Fit(o)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	b, err := Fit(o)
	if err != nil {
		t.Fatalf("Fit (second run): %v", err)
	}
	if a.Loss > a.InitialLoss {
		t.Errorf("fit worsened the loss: %.6f -> %.6f", a.InitialLoss, a.Loss)
	}
	if a.Evals < 1 {
		t.Errorf("fit reported %d evaluations", a.Evals)
	}
	for i, v := range a.Params.vec() {
		if v < coordLo || v > coordHi {
			t.Errorf("fitted %s = %v outside [%v, %v]", coordNames[i], v, coordLo, coordHi)
		}
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("two fits at the same seed diverged:\n%s\n%s", aj, bj)
	}
}

func TestRunByteIdenticalAcrossParallel(t *testing.T) {
	serial := tinyOptions()
	serial.Parallel = 1
	fanned := tinyOptions()
	fanned.Parallel = 8

	var out [2]bytes.Buffer
	for i, o := range []Options{serial, fanned} {
		rep, err := Run(o)
		if err != nil {
			t.Fatalf("Run(parallel=%d): %v", o.Parallel, err)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("VALIDATION.json differs between -parallel 1 and -parallel 8:\n%s\n---\n%s",
			out[0].Bytes(), out[1].Bytes())
	}
}

func TestReportJSONSchema(t *testing.T) {
	rep, err := Run(tinyOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("VALIDATION.json does not parse: %v", err)
	}
	for _, key := range []string{"schema", "seed", "params", "initial_loss", "loss", "calibration_targets", "figures", "metamorphic"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("VALIDATION.json missing %q", key)
		}
	}
	var schema string
	if err := json.Unmarshal(decoded["schema"], &schema); err != nil || schema != SchemaV1 {
		t.Errorf("schema = %q (%v), want %q", schema, err, SchemaV1)
	}
	// The report must round-trip: unmarshal into the struct and
	// re-marshal to the same bytes, so downstream tooling can rely on
	// the field set.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("VALIDATION.json does not round-trip into Report: %v", err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatalf("WriteJSON (round-trip): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Errorf("Report does not survive a JSON round-trip")
	}
}

func TestRunRejectsDegenerateOptions(t *testing.T) {
	for _, breakIt := range []func(*Options){
		func(o *Options) { o.FitPasses = 0 },
		func(o *Options) { o.FitIterations = 0 },
		func(o *Options) { o.PredictIterations = -1 },
		func(o *Options) { o.MetaIterations = 1 },
	} {
		o := tinyOptions()
		breakIt(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("Run accepted degenerate options %+v", o)
		}
	}
}

func TestFirstFailureOrder(t *testing.T) {
	r := &Report{
		Targets:     []TargetRow{{ID: "t", Pass: true}},
		Figures:     []FigureRow{{Figure: "fig7", Metric: "m", Pass: true}},
		Metamorphic: []CellResult{{Property: "p", Pass: true}},
	}
	if !r.Pass() || r.FirstFailure() != "" {
		t.Fatalf("all-pass report reports failure %q", r.FirstFailure())
	}
	r.Metamorphic[0].Pass = false
	r.Metamorphic[0].Detail = "cell broke"
	if r.Pass() {
		t.Errorf("report with failing cell still passes")
	}
	r.Targets[0].Pass = false
	if got := r.FirstFailure(); got == "" || got[:6] != "target" {
		t.Errorf("FirstFailure = %q, want the target failure first", got)
	}
}

// TestHeldOutSetupsResolveFromTheExperiments checks that the Figure 8
// and Figure 9 predictions run the setups the fig8 and fig9 registry
// entries resolve, at full size and under -quick: the fig8 counts up to
// maxFig8Count, and fig9's trace and window at scale 15.
func TestHeldOutSetupsResolveFromTheExperiments(t *testing.T) {
	resolve := func(name string, opts experiments.Options) any {
		for _, e := range experiments.List() {
			if e.Name == name {
				return e.Resolve(opts)
			}
		}
		t.Fatalf("no %s experiment", name)
		return nil
	}
	for _, quick := range []bool{false, true} {
		opts := experiments.Options{Quick: quick}
		counts, f9 := heldOutSetups(calibrateOptions(opts))
		fig8 := resolve("fig8", opts).(experiments.Fig8Options)
		want := 0
		for _, n := range fig8.Counts {
			if n <= maxFig8Count {
				want++
			}
		}
		if want == 0 || !reflect.DeepEqual(counts, fig8.Counts[:want]) {
			t.Errorf("quick=%v: predicted at counts %v, fig8 resolves %v", quick, counts, fig8.Counts)
		}
		fig9 := resolve("fig9", opts).(experiments.Fig9Options)
		fig9.Scales = []float64{15}
		if !reflect.DeepEqual(f9, fig9) {
			t.Errorf("quick=%v: predicted on %+v, fig9 resolves %+v", quick, f9, fig9)
		}
	}
}
