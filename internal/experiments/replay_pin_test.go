package experiments

// Byte pins for the single-machine trace replays. Every export below
// is a deterministic function of its options; the sha256 values were
// captured before the replays shared one construction path, so any
// drift in wiring order (subscriber registration, manager start,
// warmup boundary, trace synthesis) shows up as a hash mismatch. The
// sizes are the -quick ones, so the hashes also pin the CLI outputs.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

func TestSingleMachineReplayPins(t *testing.T) {
	quick := observeOptions(Options{Quick: true})
	entry := func(name string) func(w io.Writer) error {
		return func(w io.Writer) error { return Run(name, w, Options{Quick: true}) }
	}
	cases := []struct {
		name string
		want string
		run  func(w io.Writer) error
	}{
		{"observe/trace", "3981c71212456e25d1b0aa81c1cd715a1985b1b8f95264314341d9b90b684d0b", func(w io.Writer) error { return RunObserve(quick, ObserveOutputs{Trace: w}) }},
		{"observe/metrics", "c48d2096688756df51627fe21c8b13c3dcbcbdd4eb96b16b1045a5c64feeab70", func(w io.Writer) error { return RunObserve(quick, ObserveOutputs{Metrics: w}) }},
		{"observe/snapshot", "d131edab91cdffa37dadf65c8b3164ad993ab192ca83f09f1326706f6cc492c9", func(w io.Writer) error { return RunObserve(quick, ObserveOutputs{Snapshot: w}) }},
		{"observe/summary", "f44fcdfe27ad51f51367460d79958f0bf64e881ec429616076434ec9c0c6ff62", func(w io.Writer) error { return RunObserve(quick, ObserveOutputs{Summary: w}) }},
		{"trace/csv", "d0a68fd26194c30c9347458ac50f623ccf4cfbcff18f2dde09f97ae70173ed93", func(w io.Writer) error { return RunAttrTrace(quick, ObserveOutputs{CSV: w}) }},
		{"trace/summary", "4e6204e8a10e1d5c9c87cd64fd16692f9526b96bb0697d3b8a1f13ae6bdf7c49", func(w io.Writer) error { return RunAttrTrace(quick, ObserveOutputs{Summary: w}) }},
		{"trace/perfetto", "f6611fc13592c16587a59f64f43938c8da962bc343103519573bc3ff5b1bdac3", func(w io.Writer) error { return RunAttrTrace(quick, ObserveOutputs{Trace: w}) }},
		{"ext-snapstart", "fd5f24697bc36ab0c04e2b6aaba61d01ad7f840316ede246c2de1de5acbff984", entry("ext-snapstart")},
		{"ext-prewarm", "159641f7ccc98ba04cef0137ac5b3cbff3f23563b07bde484e37405caad4d75c", entry("ext-prewarm")},
		{"ext-idle", "7ee14ad36c7126aa0fdd75625e7306acc437c73a83642a9bcdc495574547b536", entry("ext-idle")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("sha256 %s, pinned %s (%d bytes)", got, c.want, buf.Len())
			}
		})
	}
}
