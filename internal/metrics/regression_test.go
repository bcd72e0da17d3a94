package metrics

import (
	"math"
	"testing"
)

// TestHistogramOverflowQuantile is the regression test for the tail
// under-reporting bug: a quantile rank landing in the overflow bucket
// used to clamp to the last finite bound, so p99/p99.9 of any series
// that ever exceeded its configured range silently lied. The fix
// reports the observed maximum instead.
func TestHistogramOverflowQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8) // overflow bucket covers (8, +Inf)
	for i := 0; i < 99; i++ {
		h.Add(1)
	}
	h.Add(5000) // a single out-of-range tail sample
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	// The p100 rank lands in the overflow bucket: the answer must be
	// the true max, not the last finite bound (8).
	if got := h.Quantile(1); got != 5000 {
		t.Fatalf("p100 = %v, want observed max 5000 (old code returned 8)", got)
	}
	// With every sample out of range, even the median is in overflow.
	all := NewHistogram(1, 2)
	all.Add(100)
	all.Add(200)
	all.Add(300)
	if got := all.Quantile(0.5); got != 300 {
		t.Fatalf("all-overflow p50 = %v, want 300", got)
	}
}

// TestHistogramQuantileClampsToMax pins the finite-bucket refinement:
// when every sample in the answering bucket is below its upper bound,
// the observed max is the tighter (and still safe) upper estimate.
func TestHistogramQuantileClampsToMax(t *testing.T) {
	h := NewHistogram(1, 1000)
	h.Add(2)
	h.Add(3)
	if got := h.Quantile(0.99); got != 3 {
		t.Fatalf("p99 = %v, want observed max 3, not bound 1000", got)
	}
}

// TestHistogramMinMax pins the observed-extremes tracking, including
// through Merge.
func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram(10, 20)
	if !math.IsNaN(h.Min()) || !math.IsNaN(h.Max()) {
		t.Fatalf("empty histogram min/max = %v/%v, want NaN/NaN", h.Min(), h.Max())
	}
	h.Add(15)
	h.Add(-3)
	h.Add(400)
	if h.Min() != -3 || h.Max() != 400 {
		t.Fatalf("min/max = %v/%v, want -3/400", h.Min(), h.Max())
	}
	other := NewHistogram(10, 20)
	other.Add(-8)
	other.Add(12)
	if err := h.Merge(other); err != nil {
		t.Fatal(err)
	}
	if h.Min() != -8 || h.Max() != 400 {
		t.Fatalf("merged min/max = %v/%v, want -8/400", h.Min(), h.Max())
	}
	if h.NonFinite() != 0 {
		t.Fatalf("merged nonfinite = %d, want 0", h.NonFinite())
	}
	// Merging into an empty histogram adopts the other's extremes.
	fresh := NewHistogram(10, 20)
	if err := fresh.Merge(h); err != nil {
		t.Fatal(err)
	}
	if fresh.Min() != -8 || fresh.Max() != 400 {
		t.Fatalf("empty-merge min/max = %v/%v, want -8/400", fresh.Min(), fresh.Max())
	}
}

// TestHistogramRejectsNonFinite is the NaN-poisoning regression test:
// NaN used to route through sort.SearchFloat64s into the overflow
// bucket and corrupt sum, making Mean/Sum NaN forever. Non-finite
// samples are now counted and otherwise ignored.
func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	h.Add(1)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	h.Add(3)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (old code counted NaN as a sample)", h.Count())
	}
	if h.NonFinite() != 3 {
		t.Fatalf("nonFinite = %d, want 3", h.NonFinite())
	}
	if got := h.Sum(); got != 4 {
		t.Fatalf("sum = %v, want 4 (old code made it NaN)", got)
	}
	if got := h.Mean(); got != 2 {
		t.Fatalf("mean = %v, want 2 (old code made it NaN)", got)
	}
	// The overflow bucket must not have swallowed the NaN.
	if _, c := h.Bucket(h.NumBuckets() - 1); c != 0 {
		t.Fatalf("overflow count = %d, want 0", c)
	}
	other := NewHistogram(1, 2, 4)
	other.Add(math.NaN())
	if err := h.Merge(other); err != nil {
		t.Fatal(err)
	}
	if h.NonFinite() != 4 {
		t.Fatalf("merged nonFinite = %d, want 4", h.NonFinite())
	}
}

// TestDistributionRejectsNonFinite pins the same exposure on
// Distribution: a stored NaN poisoned Mean and destabilized the
// Percentile sort.
func TestDistributionRejectsNonFinite(t *testing.T) {
	var d Distribution
	d.Add(10)
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	d.Add(30)
	if d.Count() != 2 {
		t.Fatalf("count = %d, want 2", d.Count())
	}
	if d.NonFinite() != 2 {
		t.Fatalf("nonFinite = %d, want 2", d.NonFinite())
	}
	if got := d.Mean(); got != 20 {
		t.Fatalf("mean = %v, want 20 (old code made it NaN)", got)
	}
	if got := d.Percentile(100); got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
}
