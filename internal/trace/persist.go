package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// csvDecimals is the resolution WriteCSV writes durations and IATs at.
const csvDecimals = 3

func formatCSVFloat(x float64) string { return strconv.FormatFloat(x, 'f', csvDecimals, 64) }

// WriteCSV serializes the trace so generated traces can be stored,
// inspected and replayed later (the artifact ships the Azure dataset
// as CSV; we do the same for our synthetic equivalent).
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "pattern", "avg_duration_ms", "mean_iat_s", "memory_mb"}); err != nil {
		return err
	}
	for _, e := range tr.Entries {
		rec := []string{
			e.ID,
			e.Pattern.String(),
			formatCSVFloat(e.AvgDurationMillis),
			formatCSVFloat(e.MeanIATSeconds),
			strconv.Itoa(e.MemoryMB),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseCSV reads a trace previously written by WriteCSV.
func ParseCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) != 5 || header[0] != "id" {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	tr := &Trace{}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		e := Entry{ID: rec[0]}
		switch rec[1] {
		case "periodic":
			e.Pattern = Periodic
		case "poisson":
			e.Pattern = Poisson
		case "bursty":
			e.Pattern = Bursty
		default:
			return nil, fmt.Errorf("trace: line %d: unknown pattern %q", line, rec[1])
		}
		if e.AvgDurationMillis, err = strconv.ParseFloat(rec[2], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: duration: %w", line, err)
		}
		if e.MeanIATSeconds, err = strconv.ParseFloat(rec[3], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d: iat: %w", line, err)
		}
		if e.MemoryMB, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("trace: line %d: memory: %w", line, err)
		}
		// The gate must be written as !(x > 0): NaN compares false to
		// everything, so `x <= 0` would wave NaN (and +Inf passes a
		// plain sign test) straight into the replay model.
		if !(e.AvgDurationMillis > 0) || !(e.MeanIATSeconds > 0) ||
			math.IsInf(e.AvgDurationMillis, 0) || math.IsInf(e.MeanIATSeconds, 0) {
			return nil, fmt.Errorf("trace: line %d: non-positive or non-finite duration or IAT", line)
		}
		// A positive value below the writer's resolution would be written
		// as 0.000, a file this parser then rejects: refuse it here so
		// every accepted trace survives a WriteCSV round trip.
		for _, v := range []float64{e.AvgDurationMillis, e.MeanIATSeconds} {
			if formatCSVFloat(v) == formatCSVFloat(0) {
				return nil, fmt.Errorf("trace: line %d: duration or IAT %v is non-positive at the CSV's %d-decimal resolution",
					line, v, csvDecimals)
			}
		}
		tr.Entries = append(tr.Entries, e)
	}
	if len(tr.Entries) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return tr, nil
}
