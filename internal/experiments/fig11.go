package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/metrics"
	"desiccant/internal/runtime"
	"desiccant/internal/workload"
)

// Fig11Result reproduces Figure 11: memory efficiency on the AWS
// Lambda profile, where images are per-instance (no library sharing),
// making the unmap optimization more effective. The paper excludes
// image-pipeline (its external process calls are unsupported in the
// vanilla Corretto image) and reports 2.08× average improvement for
// Java and 2.76× for JavaScript.
type Fig11Result struct {
	Fig7 *Fig7Result
}

// Fig11Specs returns the function set §5.4 evaluates.
func Fig11Specs() []*workload.Spec {
	var out []*workload.Spec
	for _, s := range workload.All() {
		if s.Name == "image-pipeline" {
			continue
		}
		out = append(out, s)
	}
	return out
}

// RunFig11 executes the Lambda-profile comparison.
func RunFig11(opts SingleOptions) (*Fig11Result, error) {
	opts.ShareLibraries = false // Lambda: every instance its own image
	res, err := RunFig7(Fig11Specs(), opts)
	if err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	return &Fig11Result{Fig7: res}, nil
}

// WriteCSV renders the figure's data.
func (r *Fig11Result) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "# AWS Lambda profile (private images, no library sharing)")
	fmt.Fprintln(w, "function,language,vanilla_mb,desiccant_mb,improvement")
	for _, row := range r.Fig7.Rows {
		fmt.Fprintf(w, "%s,%s,%.2f,%.2f,%.2f\n",
			row.Function, row.Language,
			metrics.MB(row.Vanilla), metrics.MB(row.Desiccant), row.ReductionVsVanilla())
	}
	fmt.Fprintf(w, "# mean improvement: java=%.2fx js=%.2fx (paper: 2.08x, 2.76x)\n",
		r.Fig7.LanguageMeanReduction(runtime.Java, false),
		r.Fig7.LanguageMeanReduction(runtime.JavaScript, false))
}
