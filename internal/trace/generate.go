// Package trace synthesizes and replays Azure-Functions-style
// production traces (§5.3). The real dataset (Shahrad et al., ATC'20)
// records per-function inter-arrival times, durations and memory;
// since the paper itself only uses those three signals of 20
// duration-matched functions, a distribution-matched synthetic trace
// exercises the same code path: heavy-tailed durations, a mix of
// timer-driven (periodic), event-driven (Poisson) and bursty arrival
// processes, and scale-factor compression of inter-arrival times.
package trace

import (
	"fmt"
	"math"
	"sort"

	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// Pattern is the arrival process class of one function.
type Pattern int

// Arrival patterns observed in the Azure dataset.
const (
	// Periodic functions fire on timers (cron-like), the largest class
	// in the Azure analysis.
	Periodic Pattern = iota
	// Poisson functions are event-driven with memoryless arrivals.
	Poisson
	// Bursty functions alternate dense request trains with long gaps.
	Bursty
)

func (p Pattern) String() string {
	switch p {
	case Periodic:
		return "periodic"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return "pattern(?)"
	}
}

// Entry is one function in the trace.
type Entry struct {
	// ID is the function's opaque identifier (the dataset uses
	// hashes).
	ID string
	// AvgDurationMillis is the function's average execution time.
	AvgDurationMillis float64
	// MemoryMB is the allocated memory recorded for the function.
	MemoryMB int
	// Pattern is the arrival process.
	Pattern Pattern
	// MeanIATSeconds is the mean inter-arrival time at scale factor 1.
	MeanIATSeconds float64
}

// Rate returns the entry's base arrival rate in requests/second.
func (e Entry) Rate() float64 { return 1 / e.MeanIATSeconds }

// Trace is a set of functions with arrival statistics.
type Trace struct {
	Seed    uint64
	Entries []Entry
}

// GenConfig parameterizes synthesis.
type GenConfig struct {
	Seed      uint64
	Functions int
}

// Generate synthesizes a trace with the Azure dataset's qualitative
// shape: log-normal durations (median ≈ 300 ms, long tail to minutes),
// log-normal inter-arrival times (seconds to hours), a 45/40/15
// periodic/Poisson/bursty split, and the dataset's discrete memory
// classes.
func Generate(cfg GenConfig) *Trace {
	if cfg.Functions <= 0 {
		panic("trace: non-positive function count")
	}
	rng := sim.NewRNG(cfg.Seed)
	memoryClasses := []int{128, 192, 256, 384, 512, 1024}
	tr := &Trace{Seed: cfg.Seed}
	for i := 0; i < cfg.Functions; i++ {
		var pat Pattern
		switch r := rng.Float64(); {
		case r < 0.45:
			pat = Periodic
		case r < 0.85:
			pat = Poisson
		default:
			pat = Bursty
		}
		// Durations: median ~300ms, sigma wide enough to span 5ms..2min.
		dur := rng.LogNormal(math.Log(300), 1.4)
		dur = clampF(dur, 1, 120_000)
		// Inter-arrival: median ~60s, spanning ~2s..hours.
		iat := rng.LogNormal(math.Log(60), 1.6)
		iat = clampF(iat, 1, 6*3600)
		tr.Entries = append(tr.Entries, Entry{
			ID:                fmt.Sprintf("func-%08x", rng.Uint64()&0xffffffff),
			AvgDurationMillis: dur,
			MemoryMB:          memoryClasses[rng.Intn(len(memoryClasses))],
			Pattern:           pat,
			MeanIATSeconds:    iat,
		})
	}
	return tr
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Assignment binds one workload spec to one trace entry whose
// recorded duration it will be invoked with.
type Assignment struct {
	Spec  *workload.Spec
	Entry Entry
}

// Match implements the paper's selection: for every Table 1 function
// (or chain), pick the unused trace entry whose average duration is
// closest to the function's end-to-end execution time. Specs are
// matched in order of decreasing duration so long chains grab the
// scarce long-duration entries first.
func Match(tr *Trace, specs []*workload.Spec) []Assignment {
	ordered := make([]*workload.Spec, len(specs))
	copy(ordered, specs)
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].TotalExecTime() > ordered[j].TotalExecTime()
	})
	used := make([]bool, len(tr.Entries))
	var out []Assignment
	for _, sp := range ordered {
		want := sp.TotalExecTime().Millis()
		best, bestDiff := -1, math.Inf(1)
		for i, e := range tr.Entries {
			if used[i] {
				continue
			}
			if d := math.Abs(e.AvgDurationMillis - want); d < bestDiff {
				best, bestDiff = i, d
			}
		}
		if best < 0 {
			panic("trace: more specs than trace entries")
		}
		used[best] = true
		out = append(out, Assignment{Spec: sp, Entry: tr.Entries[best]})
	}
	// Restore the caller's spec order for stable reporting.
	bySpec := make(map[*workload.Spec]Assignment, len(out))
	for _, a := range out {
		bySpec[a.Spec] = a
	}
	out = out[:0]
	for _, sp := range specs {
		out = append(out, bySpec[sp])
	}
	return out
}

// ApplyZipf reshapes the assignments' popularity into a Zipfian
// distribution: the function of rank k receives an arrival rate
// proportional to k^-skew. Which function gets which rank is a seeded
// permutation, so popularity is decoupled from duration (Match binds
// entries by duration). The Azure analysis — like most FaaS
// datasets — shows exactly this shape: a handful of functions
// dominate traffic while a long tail fires rarely, which is the
// regime where placement policy starts to matter. Callers normally
// follow with NormalizeRate to re-pin the total arrival rate.
func ApplyZipf(as []Assignment, skew float64, seed uint64) {
	if skew <= 0 {
		return
	}
	rng := sim.NewRNG(seed)
	ranks := make([]int, len(as))
	for i := range ranks {
		ranks[i] = i + 1
	}
	for i := len(ranks) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ranks[i], ranks[j] = ranks[j], ranks[i]
	}
	for i := range as {
		// rate ∝ rank^-skew  ⇒  mean IAT ∝ rank^skew.
		as[i].Entry.MeanIATSeconds = math.Pow(float64(ranks[i]), skew)
	}
}

// NormalizeRate uniformly rescales the assignments' inter-arrival
// times so the total base arrival rate equals target requests/second.
// The experiment harness uses this to pin the scale-factor axis to the
// paper's load levels regardless of which entries matched. It panics
// unless targetTotal is positive and finite.
func NormalizeRate(as []Assignment, targetTotal float64) {
	if !positiveFinite(targetTotal) {
		panic("trace: non-positive target rate")
	}
	var total float64
	for _, a := range as {
		total += a.Entry.Rate()
	}
	if total == 0 {
		return
	}
	factor := total / targetTotal
	for i := range as {
		as[i].Entry.MeanIATSeconds *= factor
	}
}
