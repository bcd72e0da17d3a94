package metrics

import (
	"math"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	want := []int64{2, 2, 2, 1} // (-inf,1], (1,2], (2,4], (4,+inf)
	if h.NumBuckets() != len(want) {
		t.Fatalf("buckets = %d, want %d", h.NumBuckets(), len(want))
	}
	for i, w := range want {
		upper, c := h.Bucket(i)
		if c != w {
			t.Errorf("bucket %d (upper %v): count = %d, want %d", i, upper, c, w)
		}
	}
	if upper, _ := h.Bucket(3); !math.IsInf(upper, 1) {
		t.Errorf("overflow bound = %v, want +Inf", upper)
	}
	if got := h.Sum(); got != 112 {
		t.Errorf("sum = %v, want 112", got)
	}
	if got := h.Mean(); got != 16 {
		t.Errorf("mean = %v, want 16", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Add(float64(i%8) + 0.5) // bounds hit: 1,2,4,8
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	// The top rank's bucket bound is 8, but the observed max (7.5) is
	// the tighter upper estimate.
	if got := h.Quantile(1); got != 7.5 {
		t.Errorf("q1 = %v, want 7.5", got)
	}
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("q0.5 = %v, want 4", got)
	}
	empty := NewHistogram(1)
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

func TestHistogramMergeExact(t *testing.T) {
	bounds := ExponentialBounds(1, 2, 8)
	serial := NewHistogram(bounds...)
	a := NewHistogram(bounds...)
	b := NewHistogram(bounds...)
	for i := 0; i < 1000; i++ {
		v := float64((i % 97) * 13)
		serial.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	// Merge in both orders; both must equal the serial histogram.
	ab, ba := NewHistogram(bounds...), NewHistogram(bounds...)
	for _, err := range []error{ab.Merge(a), ab.Merge(b), ba.Merge(b), ba.Merge(a)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*Histogram{ab, ba} {
		if m.Count() != serial.Count() || m.Sum() != serial.Sum() {
			t.Fatalf("merged count/sum = %d/%v, want %d/%v", m.Count(), m.Sum(), serial.Count(), serial.Sum())
		}
		for i := 0; i < serial.NumBuckets(); i++ {
			_, wc := serial.Bucket(i)
			_, gc := m.Bucket(i)
			if gc != wc {
				t.Fatalf("bucket %d: merged count = %d, want %d", i, gc, wc)
			}
		}
	}
}

func TestHistogramMergeMismatch(t *testing.T) {
	a := NewHistogram(1, 2)
	b := NewHistogram(1, 3)
	if err := a.Merge(b); err == nil {
		t.Fatal("merge with different bounds should error")
	}
	c := NewHistogram(1)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge with different bucket count should error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merge with nil should be a no-op, got %v", err)
	}
}

func TestHistogramBoundsHelpers(t *testing.T) {
	exp := ExponentialBounds(1, 10, 3)
	wantExp := []float64{1, 10, 100}
	for i, w := range wantExp {
		if exp[i] != w {
			t.Fatalf("exp[%d] = %v, want %v", i, exp[i], w)
		}
	}
}
