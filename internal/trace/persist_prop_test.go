package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// corpus is the seed corpus for the persistence properties: generated
// traces across seeds and sizes, plus hand-built edge entries that the
// generator's clamps would never emit (3-decimal boundaries, minimum
// values, IDs with unusual but CSV-safe characters).
func corpus() []*Trace {
	var out []*Trace
	for _, cfg := range []GenConfig{
		{Seed: 1, Functions: 1},
		{Seed: 7, Functions: 17},
		{Seed: 1337, Functions: 100},
		{Seed: 0xDEADBEEF, Functions: 3},
	} {
		out = append(out, Generate(cfg))
	}
	out = append(out, &Trace{Entries: []Entry{
		{ID: "edge-min", Pattern: Periodic, AvgDurationMillis: 0.001, MeanIATSeconds: 0.001, MemoryMB: 1},
		{ID: "edge-round", Pattern: Poisson, AvgDurationMillis: 0.0005, MeanIATSeconds: 1.0005, MemoryMB: 128},
		{ID: "edge id with spaces", Pattern: Bursty, AvgDurationMillis: 120000, MeanIATSeconds: 21600, MemoryMB: 1024},
	}})
	return out
}

// TestPersistRoundTripFixedPoint: the first WriteCSV quantizes floats
// to 3 decimals; from then on write -> parse -> write must be a fixed
// point, byte for byte.
func TestPersistRoundTripFixedPoint(t *testing.T) {
	for ti, tr := range corpus() {
		var first bytes.Buffer
		if err := tr.WriteCSV(&first); err != nil {
			t.Fatalf("corpus[%d]: WriteCSV: %v", ti, err)
		}
		parsed, err := ParseCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("corpus[%d]: ParseCSV of own output: %v", ti, err)
		}
		var second bytes.Buffer
		if err := parsed.WriteCSV(&second); err != nil {
			t.Fatalf("corpus[%d]: second WriteCSV: %v", ti, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("corpus[%d]: write->parse->write is not a fixed point:\n%s\n---\n%s",
				ti, first.Bytes(), second.Bytes())
		}
		reparsed, err := ParseCSV(bytes.NewReader(second.Bytes()))
		if err != nil {
			t.Fatalf("corpus[%d]: ParseCSV of fixed point: %v", ti, err)
		}
		if !reflect.DeepEqual(parsed.Entries, reparsed.Entries) {
			t.Errorf("corpus[%d]: entries drift across round trips", ti)
		}
	}
}

// FuzzParseCSV feeds arbitrary bytes to ParseCSV, seeded with the
// serialized corpus. ParseCSV must never panic; every input it accepts
// must write a file it accepts again, and from that first write on
// write -> parse -> write is a fixed point.
func FuzzParseCSV(f *testing.F) {
	for _, tr := range corpus() {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := tr.WriteCSV(&first); err != nil {
			t.Fatalf("WriteCSV of accepted input: %v", err)
		}
		parsed, err := ParseCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ParseCSV rejects the writer's output of an accepted input: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := parsed.WriteCSV(&second); err != nil {
			t.Fatalf("second WriteCSV: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write->parse->write is not a fixed point:\n%q\n---\n%q", first.Bytes(), second.Bytes())
		}
	})
}

// TestPersistFieldFidelity: exact fields survive exactly; float fields
// survive within the 3-decimal quantization (half an ULP of the last
// written digit).
func TestPersistFieldFidelity(t *testing.T) {
	const quantum = 0.0005 + 1e-12
	for ti, tr := range corpus() {
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("corpus[%d]: WriteCSV: %v", ti, err)
		}
		parsed, err := ParseCSV(&buf)
		if err != nil {
			// edge-round's 0.0005ms duration quantizes to 0.000 or 0.001;
			// only a round *down* to zero is rejected, and that rejection
			// must name the line.
			if strings.Contains(err.Error(), "non-positive") {
				continue
			}
			t.Fatalf("corpus[%d]: ParseCSV: %v", ti, err)
		}
		if len(parsed.Entries) != len(tr.Entries) {
			t.Fatalf("corpus[%d]: %d entries in, %d out", ti, len(tr.Entries), len(parsed.Entries))
		}
		for i, want := range tr.Entries {
			got := parsed.Entries[i]
			if got.ID != want.ID || got.Pattern != want.Pattern || got.MemoryMB != want.MemoryMB {
				t.Errorf("corpus[%d] entry %d: exact fields changed: %+v -> %+v", ti, i, want, got)
			}
			if math.Abs(got.AvgDurationMillis-want.AvgDurationMillis) > quantum {
				t.Errorf("corpus[%d] entry %d: duration %v -> %v exceeds quantization",
					ti, i, want.AvgDurationMillis, got.AvgDurationMillis)
			}
			if math.Abs(got.MeanIATSeconds-want.MeanIATSeconds) > quantum {
				t.Errorf("corpus[%d] entry %d: IAT %v -> %v exceeds quantization",
					ti, i, want.MeanIATSeconds, got.MeanIATSeconds)
			}
		}
	}
}

// TestPersistTruncation: every byte-prefix of a serialized trace must
// either parse to a prefix of the original's entries (the final entry
// may itself be truncated mid-field) or fail with an error — never
// panic, never invent extra entries.
func TestPersistTruncation(t *testing.T) {
	tr := Generate(GenConfig{Seed: 42, Functions: 8})
	var full bytes.Buffer
	if err := tr.WriteCSV(&full); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want, err := ParseCSV(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatalf("ParseCSV of full trace: %v", err)
	}
	data := full.Bytes()
	for cut := 0; cut < len(data); cut++ {
		got, err := ParseCSV(bytes.NewReader(data[:cut]))
		if err != nil {
			continue
		}
		if len(got.Entries) > len(want.Entries) {
			t.Fatalf("cut=%d: truncation invented entries: %d > %d", cut, len(got.Entries), len(want.Entries))
		}
		// All entries but the last must be bit-identical to the
		// original's prefix; the last line may have been cut inside a
		// field and still parse (e.g. "128" -> "12").
		for i := 0; i < len(got.Entries)-1; i++ {
			if !reflect.DeepEqual(got.Entries[i], want.Entries[i]) {
				t.Fatalf("cut=%d: entry %d mutated: %+v != %+v", cut, i, got.Entries[i], want.Entries[i])
			}
		}
		if n := len(got.Entries); n > 0 {
			last, orig := got.Entries[n-1], want.Entries[n-1]
			if !strings.HasPrefix(orig.ID, last.ID) {
				t.Fatalf("cut=%d: final ID %q is not a prefix of %q", cut, last.ID, orig.ID)
			}
		}
	}
}

// TestPersistCorruption: targeted corruptions must fail with errors
// that carry the offending line number.
func TestPersistCorruption(t *testing.T) {
	header := "id,pattern,avg_duration_ms,mean_iat_s,memory_mb\n"
	good := "f-1,periodic,300.000,60.000,128\n"
	cases := []struct {
		name, input, wantSub string
	}{
		{"empty input", "", "header"},
		{"wrong header", "a,b,c\n", "unexpected header"},
		{"header only", header, "empty trace"},
		{"unknown pattern", header + "f-1,cron,300.000,60.000,128\n", `line 2: unknown pattern "cron"`},
		{"bad duration", header + "f-1,periodic,fast,60.000,128\n", "line 2: duration"},
		{"bad iat", header + "f-1,periodic,300.000,soon,128\n", "line 2: iat"},
		{"bad memory", header + "f-1,periodic,300.000,60.000,lots\n", "line 2: memory"},
		{"zero duration", header + "f-1,periodic,0.000,60.000,128\n", "line 2: non-positive"},
		{"negative iat", header + "f-1,periodic,300.000,-60.000,128\n", "line 2: non-positive"},
		// Positive, but written back as 0.000, which would not re-parse.
		{"sub-resolution iat", header + "f-1,periodic,300.000,0.0004,128\n", "line 2: duration or IAT 0.0004 is non-positive at the CSV's 3-decimal resolution"},
		{"sub-resolution duration", header + "f-1,periodic,1e-4,60.000,128\n", "3-decimal resolution"},
		{"short record", header + good + "f-2,periodic,300.000\n", "line 3"},
		{"corrupt second line", header + good + "f-2,poisson,300.000,NaN-ish,128\n", "line 3: iat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCSV(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("corrupt input parsed")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	// NaN and ±Inf are parseable floats but must fail the finiteness
	// gate rather than entering the replay model.
	for _, v := range []string{"NaN", "+Inf", "Inf", "-Inf"} {
		input := header + fmt.Sprintf("f-1,periodic,%s,60.000,128\n", v)
		if _, err := ParseCSV(strings.NewReader(input)); err == nil {
			t.Errorf("%s duration parsed without error", v)
		}
	}
}
