package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"within bound", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{10.4, 10.3, 10.5, 10.4, 10.6}, lower, "same"},
		{"slower beyond bound", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{12, 12.1, 11.9, 12, 12.2}, lower, "worse"},
		{"faster beyond bound", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{8, 8.1, 7.9, 8, 8.2}, lower, "better"},
		{"higher is better", []float64{10, 10.1, 9.9, 10, 10.2}, []float64{12, 12.1, 11.9, 12, 12.2}, higher, "better"},
		{"wide IQR", []float64{10, 14, 7, 12, 9}, []float64{12, 15, 9, 13, 11}, lower, "unresolved"},
		// Every B sample beats every A sample, so a wide spread does not
		// hide the change.
		{"wide but separated", []float64{20, 28, 24, 30, 21}, []float64{10, 14, 12, 15, 11}, lower, "better"},
	} {
		if got, _ := verdict(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReportsOutputsAndProbe(t *testing.T) {
	bm := &benchmarkFile{EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s/rep", Better: "lower", Bound: 0.1}}}
	rec := func(sha string, probe float64) *runRecord {
		return &runRecord{Workloads: []workloadRecord{{
			Name: "replay", OutputSHA256: sha,
			Metrics: []metricSamples{
				{Name: "wall_s", Unit: "s/rep", Samples: []float64{3, 3.1, 2.9}},
				{Name: "bench.probe_ms", Unit: "ms", Samples: []float64{probe, probe, probe}},
			},
		}}}
	}
	var out bytes.Buffer
	if err := compare(&out, bm, rec("aa", 30), rec("bb", 40)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"output_sha256 DIFFERENT", "same", "WARNING: host probes differ"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
