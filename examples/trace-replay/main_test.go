package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"desiccant"
	"desiccant/internal/trace"
)

// TestRunSetupPins pins the sha256 of each setup's table rows.
func TestRunSetupPins(t *testing.T) {
	assignments := trace.Synthetic{Seed: 11, Functions: 1000, BaseRate: 2.2}.Assignments(desiccant.Functions(), 0)
	cases := []struct{ setup, want string }{
		{"vanilla", "c83bb034c5cdc83e8ae47819335e541efea18a1e00bcba6f27930ed48a7b0164"},
		{"eager", "c75c8d3e0dd86e7916e24faad30763c6418f4dafa95aa799df9ee957c334c11d"},
		{"desiccant", "57a8333eb2444a4405fca9dfa218a695c2c04011fce113ab86d1d95abeb401c6"},
	}
	for _, c := range cases {
		t.Run(c.setup, func(t *testing.T) {
			var buf bytes.Buffer
			if _, _, err := runSetup(&buf, c.setup, assignments); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("sha256 %s, pinned %s:\n%s", got, c.want, buf.String())
			}
		})
	}
}
