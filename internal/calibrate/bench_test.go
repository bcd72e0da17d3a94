package calibrate

import (
	"io"
	"testing"

	"desiccant/internal/experiments"
)

// BenchmarkCalibrateQuick times the CI-shaped calibration pipeline:
// fit on Table 1, predict Figs. 7/8/9, run the metamorphic suite, and
// render both report forms.
func BenchmarkCalibrateQuick(b *testing.B) {
	o := calibrateOptions(experiments.Options{Quick: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		rep.WriteText(io.Discard)
		if err := rep.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
