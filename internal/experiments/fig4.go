package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

// Fig4Point is the language-average ratio pair at one memory setting.
type Fig4Point struct {
	Language runtime.Language
	BudgetMB int64
	AvgRatio float64 // mean of per-function avg ratios
	MaxRatio float64 // mean of per-function max ratios
}

// Fig4Result reproduces Figure 4: how the frozen-garbage ratios move
// as the instance memory budget grows (256 MiB → 1 GiB). The paper's
// finding: Java barely moves (HotSpot controls the heap regardless),
// JavaScript grows (V8's young generation ceiling scales with the
// heap and fft-like functions ride it).
type Fig4Result struct {
	Points []Fig4Point
}

// RunFig4 sweeps the budgets for both languages. Every (budget,
// function) cell is an independent sub-simulation, so all of them fan
// out across the pool at once; the language sums then accumulate in
// the same order the serial nesting used, keeping the floats (and the
// CSV) byte-identical.
func RunFig4(budgets []int64, opts SingleOptions) (*Fig4Result, error) {
	langs := []runtime.Language{runtime.Java, runtime.JavaScript}
	type task struct {
		budget int64
		spec   *workload.Spec
	}
	var tasks []task
	for _, budget := range budgets {
		for _, lang := range langs {
			for _, spec := range workload.ByLanguage(lang) {
				tasks = append(tasks, task{budget, spec})
			}
		}
	}
	type ratios struct{ avg, max float64 }
	vals, err := runIndexed(opts.Parallel, len(tasks), func(i int) (ratios, error) {
		t := tasks[i]
		o := opts
		o.MemoryBudget = t.budget
		single, err := RunSingle(t.spec, Vanilla, o)
		if err != nil {
			return ratios{}, fmt.Errorf("fig4 %s@%dMB: %w", t.spec.Name, t.budget>>20, err)
		}
		return ratios{single.AvgRatio(), single.MaxRatio()}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	i := 0
	for _, budget := range budgets {
		for _, lang := range langs {
			specs := workload.ByLanguage(lang)
			var avgSum, maxSum float64
			for range specs {
				avgSum += vals[i].avg
				maxSum += vals[i].max
				i++
			}
			res.Points = append(res.Points, Fig4Point{
				Language: lang,
				BudgetMB: budget >> 20,
				AvgRatio: avgSum / float64(len(specs)),
				MaxRatio: maxSum / float64(len(specs)),
			})
		}
	}
	return res, nil
}

// Ratio returns the recorded point for a language/budget pair.
func (r *Fig4Result) Ratio(lang runtime.Language, budgetMB int64) (Fig4Point, bool) {
	for _, p := range r.Points {
		if p.Language == lang && p.BudgetMB == budgetMB {
			return p, true
		}
	}
	return Fig4Point{}, false
}

// WriteCSV renders the sweep.
func (r *Fig4Result) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "language,budget_mb,avg_ratio,max_ratio")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%s,%d,%.2f,%.2f\n", p.Language, p.BudgetMB, p.AvgRatio, p.MaxRatio)
	}
}
