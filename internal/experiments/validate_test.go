package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestValidationQuick(t *testing.T) {
	res, err := RunValidation(validationOptions(Options{Quick: true}))
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
