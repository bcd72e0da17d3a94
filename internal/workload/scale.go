package workload

import (
	"fmt"
	"math"
)

// Scaling perturbs a Spec's characterization parameters along the
// three axes the calibration layer fits: allocation volume, live-set
// size, and allocation pacing. Each factor multiplies the byte
// quantities it governs; 1 leaves them untouched. The zero value is
// invalid — use Identity (or a fitted Scaling) so a forgotten field
// fails loudly instead of silently zeroing a workload.
type Scaling struct {
	// Alloc multiplies the garbage-generating volumes: the
	// initialization churn and the per-invocation temporary allocation.
	Alloc float64
	// Live multiplies the quantities that stay reachable: static state,
	// the working set, weak caches, and chain intermediates.
	Live float64
	// Pacing multiplies the allocation cluster granularity (ObjectSize),
	// which sets how fast the young generation fills between GC points.
	Pacing float64
}

// Identity returns the no-op scaling.
func Identity() Scaling { return Scaling{Alloc: 1, Live: 1, Pacing: 1} }

// Validate rejects non-finite or non-positive factors.
func (sc Scaling) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"alloc", sc.Alloc}, {"live", sc.Live}, {"pacing", sc.Pacing}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("workload: scaling factor %s = %v out of range", f.name, f.v)
		}
	}
	return nil
}

// Apply returns a scaled, validated copy of s; the input spec is never
// mutated. Scaling allocation down (or the live set up) can push the
// working set past the allocation volume the body generates, which
// Validate rejects — Apply clamps the working set to that cap so every
// point of a calibration search stays a runnable workload.
func (sc Scaling) Apply(s *Spec) (*Spec, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	out := *s
	out.InitAllocBytes = scaleBytes(s.InitAllocBytes, sc.Alloc)
	out.AllocPerInvoke = scaleBytes(s.AllocPerInvoke, sc.Alloc)
	out.StaticBytes = scaleBytes(s.StaticBytes, sc.Live)
	out.WorkingSet = scaleBytes(s.WorkingSet, sc.Live)
	out.WeakBytes = scaleBytes(s.WeakBytes, sc.Live)
	out.IntermediateBytes = scaleBytes(s.IntermediateBytes, sc.Live)
	out.ObjectSize = scaleBytes(s.ObjectSize, sc.Pacing)
	if out.ObjectSize < 1 {
		out.ObjectSize = 1
	}
	if cap := out.AllocPerInvoke + out.InitAllocBytes; out.WorkingSet > cap {
		out.WorkingSet = cap
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("workload: scaling %s: %w", s.Name, err)
	}
	return &out, nil
}

func scaleBytes(b int64, f float64) int64 {
	if b == 0 {
		return 0
	}
	return int64(math.Round(float64(b) * f))
}
