package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts samples into fixed buckets so observations from
// independent workers can be merged without storing every sample. The
// bucket layout is chosen at construction and never changes, which is
// what makes Merge exact: two histograms with identical bounds combine
// by adding counts, with no re-binning error and no dependence on the
// order samples arrived.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing
	counts []int64   // len(bounds)+1; last bucket is (bounds[last], +Inf)
	sum    float64
	n      int64
	// Observed extremes of accepted samples. Tracking them costs two
	// compares per Add and repairs the overflow bucket's information
	// loss: a quantile rank landing above the last finite bound can
	// report the true maximum instead of silently clamping to the bound
	// (which under-reported p99/p99.9 whenever a series ever exceeded
	// its configured range).
	min, max float64
	// nonFinite counts rejected NaN/±Inf samples. A NaN previously fell
	// through sort.SearchFloat64s into the overflow bucket and poisoned
	// sum (Mean/Sum became NaN forever); rejecting keeps the histogram
	// usable while the counter keeps the corruption visible.
	nonFinite int64
}

// NewHistogram builds a histogram whose i-th bucket counts samples v
// with v <= bounds[i] (and v > bounds[i-1] for i > 0). One implicit
// overflow bucket covers everything above the last bound. Bounds must
// be strictly increasing and non-empty.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at index %d", i))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// ExponentialBounds returns n strictly increasing bounds start,
// start*factor, start*factor^2, ..., for NewHistogram.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: exponential bounds need n > 0, start > 0, factor > 1")
	}
	bounds := make([]float64, n)
	v := start
	for i := range bounds {
		bounds[i] = v
		v *= factor
	}
	return bounds
}

// Add records one sample. NaN and ±Inf are not recordable — they are
// counted in NonFinite and otherwise ignored, so one bad sample cannot
// poison sum/mean or inflate the overflow bucket.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonFinite++
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.n }

// NonFinite returns the number of NaN/±Inf samples rejected by Add.
func (h *Histogram) NonFinite() int64 { return h.nonFinite }

// Min returns the smallest recorded sample (NaN when empty).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the largest recorded sample (NaN when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.max
}

// Sum returns the running sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean of all samples (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// NumBuckets returns the number of buckets including the overflow
// bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Bucket returns the upper bound and count of bucket i. The overflow
// bucket reports +Inf as its bound.
func (h *Histogram) Bucket(i int) (upper float64, count int64) {
	if i == len(h.bounds) {
		return math.Inf(1), h.counts[i]
	}
	return h.bounds[i], h.counts[i]
}

// Quantile returns an upper-bound estimate of the q-th quantile
// (q in [0,1]): the bound of the bucket containing that rank, clamped
// to the observed maximum. A rank landing in the overflow bucket
// reports the observed maximum — the only true upper bound available
// there, and a far better tail estimate than the last finite bound
// (which silently under-reported p99/p99.9 for any series that ever
// exceeded the configured range). NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of range", q))
	}
	if h.n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == len(h.bounds) {
				return h.max
			}
			if h.bounds[i] > h.max {
				// Every sample in this bucket is <= the observed max.
				return h.max
			}
			return h.bounds[i]
		}
	}
	return h.max
}

// Merge adds other's counts into h. The two histograms must share the
// same bucket layout; merging is exact and order-independent.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("metrics: histogram bucket count mismatch: %d vs %d", len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("metrics: histogram bound mismatch at index %d: %v vs %v", i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	if other.n > 0 {
		if h.n == 0 || other.min < h.min {
			h.min = other.min
		}
		if h.n == 0 || other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.nonFinite += other.nonFinite
	return nil
}
