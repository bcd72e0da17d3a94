package metrics

import (
	"math"
	"testing"
)

func TestDistributionPercentiles(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := d.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := d.Percentile(99); got < 99 || got > 100 {
		t.Errorf("p99 = %v", got)
	}
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if !math.IsNaN(d.Percentile(50)) || !math.IsNaN(d.Mean()) ||
		!math.IsNaN(d.Max()) || !math.IsNaN(d.Min()) {
		t.Fatal("empty distribution should return NaN")
	}
}

func TestDistributionAddAfterQuery(t *testing.T) {
	var d Distribution
	d.Add(5)
	d.Add(1)
	if d.Percentile(100) != 5 {
		t.Fatal("max wrong")
	}
	d.Add(10) // must re-sort lazily
	if d.Percentile(100) != 10 {
		t.Fatal("stale sort after Add")
	}
}

func TestDistributionStats(t *testing.T) {
	var d Distribution
	for _, v := range []float64{2, 4, 6, 8} {
		d.Add(v)
	}
	if d.Mean() != 5 || d.Min() != 2 || d.Max() != 8 {
		t.Fatalf("mean=%v min=%v max=%v", d.Mean(), d.Min(), d.Max())
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	mustPanic := func(name string, d *Distribution, p float64) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Percentile(%v) did not panic", name, p)
			}
		}()
		d.Percentile(p)
	}
	var one Distribution
	one.Add(1)
	mustPanic("one sample, p=101", &one, 101)
	mustPanic("one sample, p=-1", &one, -1)
	// The range check comes before the empty check: an out-of-range p
	// on an empty distribution panics instead of returning NaN.
	var empty Distribution
	mustPanic("empty, p=150", &empty, 150)
	mustPanic("empty, p=-0.5", &empty, -0.5)
}

func TestPercentileEdgeCases(t *testing.T) {
	// Empty distribution, valid p: NaN.
	var empty Distribution
	for _, p := range []float64{0, 50, 100} {
		if !math.IsNaN(empty.Percentile(p)) {
			t.Errorf("empty Percentile(%v) != NaN", p)
		}
	}
	// A single sample answers every valid p with itself.
	var one Distribution
	one.Add(42)
	for _, p := range []float64{0, 25, 50, 99.9, 100} {
		if got := one.Percentile(p); got != 42 {
			t.Errorf("single-sample Percentile(%v) = %v, want 42", p, got)
		}
	}
	// p=0 and p=100 are the min and max samples.
	var d Distribution
	for _, v := range []float64{7, 3, 9, 1} {
		d.Add(v)
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("Percentile(0) = %v, want 1", got)
	}
	if got := d.Percentile(100); got != 9 {
		t.Errorf("Percentile(100) = %v, want 9", got)
	}
	// Linear interpolation between the two closest ranks: p=50 over
	// {1,3,7,9} sits halfway between ranks 1 and 2.
	if got := d.Percentile(50); got != 5 {
		t.Errorf("Percentile(50) = %v, want 5", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatal("ratio wrong")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Fatal("x/0 should be +Inf")
	}
	if !math.IsNaN(Ratio(0, 0)) {
		t.Fatal("0/0 should be NaN")
	}
}

func TestMB(t *testing.T) {
	if MB(1<<20) != 1 || MB(3<<19) != 1.5 {
		t.Fatal("MB conversion wrong")
	}
}
