package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"
)

func TestRunSetups(t *testing.T) {
	for _, setup := range []string{"vanilla", "eager", "desiccant", "swap"} {
		setup := setup
		t.Run(setup, func(t *testing.T) {
			if err := run(io.Discard, "fft", 10, 10, setup, 512, 8, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunAllFunctionsRoundRobin(t *testing.T) {
	if err := run(io.Discard, "", 5, 8, "desiccant", 1024, 8, false, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCacheTrace(t *testing.T) {
	if err := run(io.Discard, "sort", 5, 4, "vanilla", 512, 8, true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name           string
		fn, setup      string
		rate, duration float64
		cacheMB        int64
		cpus           float64
	}{
		{"unknown function", "bogus-fn", "vanilla", 1, 1, 512, 8},
		{"unknown setup", "fft", "bogus-setup", 1, 1, 512, 8},
		{"zero rate", "fft", "vanilla", 0, 1, 512, 8},
		{"negative rate", "fft", "vanilla", -5, 1, 512, 8},
		{"NaN rate", "fft", "vanilla", math.NaN(), 1, 512, 8},
		{"infinite rate", "fft", "vanilla", math.Inf(1), 1, 512, 8},
		{"zero duration", "fft", "vanilla", 1, 0, 512, 8},
		{"negative duration", "fft", "vanilla", 1, -3, 512, 8},
		{"infinite duration", "fft", "vanilla", 1, math.Inf(1), 512, 8},
		{"zero cpus", "fft", "vanilla", 1, 1, 512, 0},
		{"zero cache", "fft", "vanilla", 1, 1, 0, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, c.fn, c.rate, c.duration, c.setup, c.cacheMB, c.cpus, false, 1); err == nil {
				t.Fatal("accepted")
			}
			if buf.Len() != 0 {
				t.Errorf("wrote output before failing: %q", buf.String())
			}
		})
	}
}

// TestRunPins pins the sha256 of the full output (per-second cache
// trace and summary) of each setup at the default load.
func TestRunPins(t *testing.T) {
	cases := []struct{ setup, want string }{
		{"vanilla", "406b78be61e5d71401630cbc7e7cbfc067360493a3017a0e9df7f029ee471865"},
		{"eager", "81d7d3786132025f68c626544138d39d1f1eb693f8dbb53a4e4386a5b284012a"},
		{"desiccant", "6db3db25479e21f37439d43d01af1f2da52bb88bed2cb58c12349845c940c25d"},
		{"swap", "9a4342e7c69b9345b03ef237793adcb000031fbab8b0b826f7c6478c297efd29"},
	}
	for _, c := range cases {
		t.Run(c.setup, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, "", 20, 60, c.setup, 2048, 20, true, 1); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("sha256 %s, pinned %s (%d bytes)", got, c.want, buf.Len())
			}
		})
	}
}
