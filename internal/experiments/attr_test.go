package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"desiccant/internal/obs/trace"
	"desiccant/internal/sim"
)

// quickAttrOptions is the attribution experiment shrunk to test size:
// one mode, two machines, a short window — big enough to exercise
// queueing, boots, thaws, and manager interference.
func quickAttrOptions() AttrOptions {
	o := attrOptions(Options{})
	o.Modes = []string{"reclaim"}
	o.Cluster.Nodes = 2
	o.Cluster.Window = 15 * sim.Second
	o.Cluster.Functions = 120
	return o
}

// TestAttrGoldenPreRefactor pins the move of ext-attr onto cluster.Run
// to the byte: the test-size attribution CSV and the machine-1
// Perfetto export must hash to the values captured from the
// hand-wired fleet that preceded it. The Perfetto hash covers the
// t=0 manager threshold counter, which only reaches the trace if the
// cluster's ObserveNode hook runs before the manager starts.
func TestAttrGoldenPreRefactor(t *testing.T) {
	res, err := RunAttr(quickAttrOptions())
	if err != nil {
		t.Fatal(err)
	}
	var csv, perfetto bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WritePerfetto(&perfetto, "reclaim"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"attribution CSV", csv.Bytes(), "212e869f413fd3851b5cd87fdf35186f32e36cd271862c410aefbac8ec3c50ab"},
		{"Perfetto export", perfetto.Bytes(), "9328a575098fd64535a51c4eb4ba46ebed6acd7e01e4690840a0055d9cea0b7c"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s sha256 %s, want %s (%d bytes)", c.name, got, c.want, len(c.data))
		}
	}
}

// TestAttrSummaryPin pins the test-size attribution summary to the
// byte. The hash was captured from the sharded runner that preceded
// the single engine, with its engine self-metrics block (the only
// part that runner added) cut out.
func TestAttrSummaryPin(t *testing.T) {
	res, err := RunAttr(quickAttrOptions())
	if err != nil {
		t.Fatal(err)
	}
	var summary bytes.Buffer
	if err := res.WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	const want = "b26f63113cfdc684a58e701539eacde7abf6df5154968456274883629d6033cb"
	if got := fmt.Sprintf("%x", sha256.Sum256(summary.Bytes())); got != want {
		t.Fatalf("summary sha256 %s, want %s:\n%s", got, want, summary.String())
	}
}

// TestAttrSpanConservation pins the no-orphan contract at the
// experiment level: every submitted invocation closes exactly one
// span (RunAttr fails internally otherwise) and the drain leaves
// nothing open.
func TestAttrSpanConservation(t *testing.T) {
	res, err := RunAttr(quickAttrOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Modes[0]
	if m.Open != 0 {
		t.Fatalf("%d spans still open after drain", m.Open)
	}
	if int64(len(m.Spans)) != m.Submitted {
		t.Fatalf("%d spans != %d submitted", len(m.Spans), m.Submitted)
	}
	if m.Submitted < 50 {
		t.Fatalf("only %d invocations; widen the window before trusting this test", m.Submitted)
	}
	var completed, dropped int64
	for _, s := range m.Spans {
		if s.Outcome == trace.Completed {
			completed++
		} else {
			dropped++
		}
	}
	if completed != m.Completed || dropped != m.Dropped {
		t.Fatalf("outcome conservation: spans %d/%d vs platform %d/%d",
			completed, dropped, m.Completed, m.Dropped)
	}
	// Machine IDs are recoverable from the span IDs.
	for _, s := range m.Spans {
		if mach := s.ID / 1_000_000_000; mach < 1 || mach > int64(quickAttrOptions().Cluster.Nodes) {
			t.Fatalf("span %d maps to machine %d, outside the fleet", s.ID, mach)
		}
	}
}

// TestAttrSummaryAnswersTheQuestion pins the report's shape: each
// function lists p50/p90/p99 with an exemplar invocation and a
// dominant phase — the "p99 is dominated by X" sentence the tentpole
// promises.
func TestAttrSummaryAnswersTheQuestion(t *testing.T) {
	res, err := RunAttr(quickAttrOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum strings.Builder
	if err := res.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	text := sum.String()
	for _, want := range []string{"== mode reclaim ==", "latency by phase", "p99", "dominated by"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary lacks %q:\n%s", want, text)
		}
	}
}
