package experiments

// End-to-end byte-identity tests for the page-accounting fast paths:
// fig1, the validation suite, and the chaos zero-intensity scenario
// are replayed on a fixed seed and their exported CSV/text compared
// byte-for-byte against goldens captured from the pre-fast-path
// per-page implementation. Any behavioural drift in osmem — a counter
// batched differently, a fault misclassified on a run boundary, a
// cache invalidated one call too late — lands in USS/RSS numbers and
// shows up here as a byte diff. Each artifact is also rendered at
// -parallel 1 and 4 and the two must match exactly.
//
// Regenerate (only when an intentional model change lands) with
//
//	go test ./internal/experiments -run TestGoldenE2E -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateE2E = flag.Bool("update", false, "rewrite the e2e golden files")

// goldenChaosOptions is the zero-intensity control cell of the chaos
// sweep: the injector is attached but fires nothing, so the CSV is a
// pure function of the page accounting underneath.
func goldenChaosOptions(parallel int) ChaosOptions {
	o := chaosOptions(Options{Quick: true, Parallel: parallel})
	o.Intensities = []float64{0}
	return o
}

// renderE2E produces the three artifacts at the given parallelism.
func renderE2E(t *testing.T, parallel int) (fig1CSV, validateTxt, chaosCSV []byte) {
	t.Helper()

	f1, err := RunFig1(singleOptions(Options{Quick: true, Parallel: parallel}))
	if err != nil {
		t.Fatal(err)
	}
	var f1buf bytes.Buffer
	f1.WriteCSV(&f1buf)

	val, err := RunValidation(validationOptions(Options{Quick: true, Parallel: parallel}))
	if err != nil {
		t.Fatal(err)
	}
	var vbuf bytes.Buffer
	val.WriteText(&vbuf)

	ch, err := RunChaos(goldenChaosOptions(parallel))
	if err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	ch.WriteCSV(&cbuf)

	return f1buf.Bytes(), vbuf.Bytes(), cbuf.Bytes()
}

func checkE2EGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateE2E {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the pre-fast-path golden (%d vs %d bytes); the page-accounting "+
			"fast paths changed observable behaviour — diff the files, regenerate with -update "+
			"only if the model change is intended", name, len(got), len(want))
	}
}

func TestGoldenE2E(t *testing.T) {
	fig1p1, valp1, chaosp1 := renderE2E(t, 1)
	checkE2EGolden(t, "golden_fig1.csv", fig1p1)
	checkE2EGolden(t, "golden_validate.txt", valp1)
	checkE2EGolden(t, "golden_chaos0.csv", chaosp1)

	fig1p4, valp4, chaosp4 := renderE2E(t, 4)
	if !bytes.Equal(fig1p1, fig1p4) {
		t.Fatal("fig1 CSV differs between -parallel 1 and 4")
	}
	if !bytes.Equal(valp1, valp4) {
		t.Fatal("validation report differs between -parallel 1 and 4")
	}
	if !bytes.Equal(chaosp1, chaosp4) {
		t.Fatal("chaos zero-intensity CSV differs between -parallel 1 and 4")
	}
}
