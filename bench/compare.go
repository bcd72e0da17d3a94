package main

import (
	"fmt"
	"io"
	"math"
)

// probeTolerance is how far the two sides' host probes may differ
// before compare warns that the runs saw different host phases.
const probeTolerance = 0.10

// verdict compares B against A for one metric. A change is the
// difference of medians as a share of A's median, signed so that
// positive is worse. Beyond the bound it is "better" or "worse", within
// it "same". When either side's IQR is wider than the bound the result
// is "unresolved", unless every sample of one side beats every sample
// of the other.
func verdict(a, b []float64, spec metricSpec) (string, float64) {
	sa, sb := summarize(a), summarize(b)
	change := 0.0
	if sa.Median != 0 {
		change = (sb.Median - sa.Median) / math.Abs(sa.Median)
	} else if sb.Median != 0 {
		change = math.Inf(1)
	}
	if spec.Better == "higher" {
		change = -change
	}
	if (sa.spread() > spec.Bound || sb.spread() > spec.Bound) && !separated(a, b) {
		return "unresolved", change
	}
	switch {
	case change > spec.Bound:
		return "worse", change
	case change < -spec.Bound:
		return "better", change
	}
	return "same", change
}

// separated reports whether every sample of one side is above every
// sample of the other.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return maxA < minB || maxB < minA
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compare prints, for each workload both runs measured, every
// end-to-end metric's medians and quartiles with a verdict, whether the
// outputs matched, and a warning when the host probes disagree.
func compare(w io.Writer, bm *benchmarkFile, a, b *runRecord) error {
	fmt.Fprintf(w, "A: %s %s nproc %d\nB: %s %s nproc %d\n", a.Revision, a.GoVersion, a.NProc, b.Revision, b.GoVersion, b.NProc)
	matched := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		var wb *workloadRecord
		for j := range b.Workloads {
			if b.Workloads[j].Name == wa.Name {
				wb = &b.Workloads[j]
			}
		}
		if wb == nil {
			continue
		}
		matched++
		fmt.Fprintf(w, "\n# %s  seeds %d / %d  failed %d/%d / %d/%d  output_sha256 %s\n", wa.Name, wa.Seed, wb.Seed,
			wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, equalWord(wa.OutputSHA256 == wb.OutputSHA256))
		fmt.Fprintf(w, "%-14s %-10s %28s %28s %8s %6s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
		for _, spec := range bm.EndToEnd {
			ma, mb := wa.metric(spec.Name), wb.metric(spec.Name)
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-14s missing from a record\n", spec.Name)
				continue
			}
			v, change := verdict(ma.Samples, mb.Samples, spec)
			fmt.Fprintf(w, "%-14s %-10s %28s %28s %+7.1f%% %5.0f%%  %s\n", spec.Name, spec.Unit,
				quartiles(ma.Samples), quartiles(mb.Samples), 100*change, 100*spec.Bound, v)
		}
		pa, pb := wa.metric("bench.probe_ms"), wb.metric("bench.probe_ms")
		if pa != nil && pb != nil {
			sa, sb := summarize(pa.Samples), summarize(pb.Samples)
			fmt.Fprintf(w, "probe_ms       A %s  B %s\n", quartiles(pa.Samples), quartiles(pb.Samples))
			if math.Abs(sb.Median-sa.Median) > probeTolerance*sa.Median {
				fmt.Fprintf(w, "WARNING: host probes differ by more than %.0f%%; the runs saw different host phases\n", 100*probeTolerance)
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("the records share no workload")
	}
	return nil
}

func quartiles(v []float64) string {
	s := summarize(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func equalWord(eq bool) string {
	if eq {
		return "equal"
	}
	return "DIFFERENT"
}
