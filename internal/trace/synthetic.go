package trace

import (
	"fmt"
	"math"

	"desiccant/internal/workload"
)

// Synthetic is one seeded synthetic trace replay (§5.3): a generated
// function population, the workload functions matched to it by
// execution time, and their total arrival rate at scale 1 pinned to
// BaseRate. Its methods are the one path from a seed to a replay.
// Synthesis draws from Seed, arrivals from Seed+1 and the Zipf rank
// permutation from Seed+3; callers may take Seed+2 for a stream of
// their own (the cluster's placement policy does).
type Synthetic struct {
	// Seed seeds synthesis and, offset as above, replay.
	Seed uint64
	// Functions is the generated population the workload functions
	// are matched against.
	Functions int
	// BaseRate is the matched functions' total arrival rate at scale
	// 1, in requests/second.
	BaseRate float64
}

// Validate reports, naming the field, why s cannot replay specs (nil:
// the full Table 1 set) with the given Zipf skew (0: none) at every
// given scale factor; nil means Assignments and Schedule will not
// panic on them.
func (s Synthetic) Validate(specs []*workload.Spec, zipfSkew float64, scales ...float64) error {
	if specs == nil {
		specs = workload.All()
	}
	switch {
	case s.Functions < len(specs):
		return fmt.Errorf("trace: Functions must cover the %d matched functions, got %d", len(specs), s.Functions)
	case !positiveFinite(s.BaseRate):
		return fmt.Errorf("trace: BaseRate must be positive and finite, got %v", s.BaseRate)
	case zipfSkew != 0 && !positiveFinite(zipfSkew):
		return fmt.Errorf("trace: ZipfSkew must be 0 or positive and finite, got %v", zipfSkew)
	}
	for _, scale := range scales {
		if !positiveFinite(scale) {
			return fmt.Errorf("trace: Scale must be positive and finite, got %v", scale)
		}
	}
	return nil
}

// Assignments generates the trace, matches specs (nil: the full Table
// 1 set) to it, reshapes popularity to a Zipf law when zipfSkew > 0,
// and pins the total base rate. The replayers only read the result,
// so one call serves a whole sweep.
func (s Synthetic) Assignments(specs []*workload.Spec, zipfSkew float64) []Assignment {
	if specs == nil {
		specs = workload.All()
	}
	as := Match(Generate(GenConfig{Seed: s.Seed, Functions: s.Functions}), specs)
	ApplyZipf(as, zipfSkew, s.Seed+3)
	NormalizeRate(as, s.BaseRate)
	return as
}

// Replayer returns the replayer of as onto p, drawing arrivals from
// Seed+1.
func (s Synthetic) Replayer(p Submitter, as []Assignment) *Replayer {
	return NewReplayer(p, as, s.Seed+1)
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
