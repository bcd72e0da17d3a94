// Package metrics provides the measurement primitives the experiment
// harnesses use: latency distributions with percentile queries and
// fixed-bucket histograms — the quantities reported in the paper's
// Figures 1–13.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Distribution collects samples and answers percentile queries. The
// zero value is ready to use.
type Distribution struct {
	samples []float64
	sorted  bool
	// nonFinite counts rejected NaN/±Inf samples. A NaN stored in
	// samples would make Mean NaN forever and, worse, corrupt
	// Percentile: sort.Float64s gives NaN an unspecified position, so
	// every rank after it silently shifts.
	nonFinite int64
}

// Add records one sample. NaN and ±Inf are counted in NonFinite and
// otherwise ignored — a stored NaN would poison Mean and destabilize
// Percentile's sort order.
func (d *Distribution) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.nonFinite++
		return
	}
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples recorded.
func (d *Distribution) Count() int { return len(d.samples) }

// NonFinite returns the number of NaN/±Inf samples rejected by Add.
func (d *Distribution) NonFinite() int64 { return d.nonFinite }

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between the two closest ranks. An out-of-range p
// panics regardless of the sample count; querying an empty
// distribution with a valid p returns NaN.
func (d *Distribution) Percentile(p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of range", p))
	}
	if len(d.samples) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	rank := p / 100 * float64(len(d.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// Mean returns the arithmetic mean (NaN when empty).
func (d *Distribution) Mean() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// Max returns the largest sample (NaN when empty).
func (d *Distribution) Max() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	max := d.samples[0]
	for _, v := range d.samples {
		if v > max {
			max = v
		}
	}
	return max
}

// Min returns the smallest sample (NaN when empty).
func (d *Distribution) Min() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	min := d.samples[0]
	for _, v := range d.samples {
		if v < min {
			min = v
		}
	}
	return min
}

// Ratio returns a/b guarding against division by zero (returns +Inf
// for positive a, NaN for zero a).
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return math.NaN()
		}
		return math.Inf(1)
	}
	return a / b
}

// MB converts bytes to mebibytes as a float.
func MB(bytes int64) float64 { return float64(bytes) / (1 << 20) }
