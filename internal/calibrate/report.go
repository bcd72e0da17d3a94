package calibrate

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaV1 identifies the VALIDATION.json layout.
const SchemaV1 = "desiccant-validation-v1"

// Report is the machine-readable calibration outcome (VALIDATION.json).
// Field order is fixed by the struct, float rendering by encoding/json
// — combined with the deterministic pipeline, the bytes are identical
// at any -parallel setting.
type Report struct {
	Schema      string       `json:"schema"`
	Seed        uint64       `json:"seed"`
	Quick       bool         `json:"quick"`
	Params      Params       `json:"params"`
	InitialLoss float64      `json:"initial_loss"`
	Loss        float64      `json:"loss"`
	LossEvals   int          `json:"loss_evals"`
	Targets     []TargetRow  `json:"calibration_targets"`
	Figures     []FigureRow  `json:"figures"`
	Metamorphic []CellResult `json:"metamorphic"`
}

// Pass reports whether every held-in target and held-out prediction is
// inside its band and every metamorphic cell holds.
func (r *Report) Pass() bool { return r.FirstFailure() == "" }

// FirstFailure describes the first failing row ("" when all pass).
func (r *Report) FirstFailure() string {
	for _, t := range r.Targets {
		if !t.Pass {
			return fmt.Sprintf("target %s: relerr %.4f outside [%.2f, %.2f]", t.ID, t.RelErr, t.Lo, t.Hi)
		}
	}
	for _, f := range r.Figures {
		if !f.Pass {
			return fmt.Sprintf("prediction %s/%s: relerr %.4f outside [%.2f, %.2f]", f.Figure, f.Metric, f.RelErr, f.Lo, f.Hi)
		}
	}
	for _, c := range r.Metamorphic {
		if !c.Pass {
			return fmt.Sprintf("metamorphic %s", c.Detail)
		}
	}
	return ""
}

// WriteJSON emits VALIDATION.json.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the human-readable report the calibrate
// experiment prints.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# calibrate: loss %.6f -> %.6f over %d evaluations (seed %d)\n",
		r.InitialLoss, r.Loss, r.LossEvals, r.Seed)
	fmt.Fprintln(w, "param,value")
	v := r.Params.vec()
	for i, name := range coordNames {
		fmt.Fprintf(w, "%s,%.4f\n", name, v[i])
	}
	fmt.Fprintln(w, "# held-in calibration targets (Table 1 characterization)")
	fmt.Fprintln(w, "id,source,reference,fitted,relerr,lo,hi,verdict")
	for _, t := range r.Targets {
		fmt.Fprintf(w, "%s,%s,%.4f,%.4f,%.4f,%.2f,%.2f,%s\n",
			t.Metric, t.Source, t.Reference, t.Fitted, t.RelErr, t.Lo, t.Hi, verdict(t.Pass))
	}
	fmt.Fprintln(w, "# held-out predictions (Figs. 7/8/9)")
	fmt.Fprintln(w, "figure,metric,predicted,reference,relerr,lo,hi,verdict")
	for _, f := range r.Figures {
		fmt.Fprintf(w, "%s,%s,%.4f,%.4f,%.4f,%.2f,%.2f,%s\n",
			f.Figure, f.Metric, f.Predicted, f.Reference, f.RelErr, f.Lo, f.Hi, verdict(f.Pass))
	}
	fmt.Fprintln(w, "# metamorphic properties")
	fmt.Fprintln(w, "property,runtime,workload,seed,verdict,detail")
	for _, c := range r.Metamorphic {
		fmt.Fprintf(w, "%s,%s,%s,%d,%s,%q\n",
			c.Property, c.Runtime, c.Workload, c.Seed, verdict(c.Pass), c.Detail)
	}
	if r.Pass() {
		fmt.Fprintln(w, "calibration holds: predictions in band, metamorphic properties hold")
	} else {
		fmt.Fprintf(w, "CALIBRATION FAILED: %s\n", r.FirstFailure())
	}
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
