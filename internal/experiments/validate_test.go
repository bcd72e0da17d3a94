package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestValidationQuick(t *testing.T) {
	res, err := RunValidation(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checks) != 11 {
		t.Fatalf("checks: %d", len(res.Checks))
	}
	for _, c := range res.Checks {
		if !c.Pass {
			t.Errorf("%s failed: %q measured=%.3f band=[%.2f,%.2f]",
				c.ID, c.Claim, c.Measured, c.Lo, c.Hi)
		}
	}
	if !res.AllPassed() {
		t.Fatal("AllPassed disagrees with per-check verdicts")
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "all claims hold") {
		t.Fatal("summary line missing")
	}
	// A failing check flips the summary.
	res.addBand("X", "always fails", 0, Band{Lo: 1, Hi: 2, Rationale: "test"})
	if res.AllPassed() {
		t.Fatal("failing check not detected")
	}
	buf.Reset()
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "SOME CLAIMS FAILED") {
		t.Fatal("failure summary missing")
	}
}

// TestValidationOptionsCarrySeed: -seed reaches both the single-machine
// runs and the trace replay of the claim checks, and without it both
// keep their default seeds.
func TestValidationOptionsCarrySeed(t *testing.T) {
	for _, quick := range []bool{false, true} {
		single, tr := validationOptions(Options{Quick: quick, Seed: 5})
		if single.Seed != 5 || tr.Seed != 5 {
			t.Errorf("quick=%v -seed 5: single seed %d, replay seed %d", quick, single.Seed, tr.Seed)
		}
		single, tr = validationOptions(Options{Quick: quick})
		if def, defTr := DefaultSingleOptions().Seed, DefaultFig9Options().Seed; single.Seed != def || tr.Seed != defTr {
			t.Errorf("quick=%v no seed: single seed %d, replay seed %d; want %d and %d",
				quick, single.Seed, tr.Seed, def, defTr)
		}
	}
}
