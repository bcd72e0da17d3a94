package experiments

import (
	"fmt"
	"io"
)

// SnapStartRow is one setup's measurement in the extension experiment.
type SnapStartRow struct {
	Setup        string
	ColdBootRate float64
	Restores     int64
	P50, P99     float64
	CacheMB      float64 // cache occupancy at the end of the run
	Throughput   float64
}

// SnapStartResult is the extension experiment the paper's introduction
// motivates: instance caching (vanilla/Desiccant) versus a
// SnapStart-style restore-from-snapshot platform that keeps nothing
// warm. Snapshots eliminate idle memory entirely but put the restore
// latency (>100 ms, §2.1) on *every* invocation whose instance is not
// already running; Desiccant keeps warm-start latency while cutting
// the idle memory most of the way there.
type SnapStartResult struct {
	Scale float64
	Rows  []SnapStartRow
}

// RunSnapStart measures vanilla, Desiccant and SnapStart platforms on
// the same trace at one scale factor. SnapStart is the vanilla machine
// restoring from snapshots. The three setups are independent
// simulations and run concurrently on the pool.
func RunSnapStart(opts Fig9Options, scale float64) (*SnapStartResult, error) {
	cells := []struct {
		name     string
		setup    Setup
		snapshot bool
	}{{"vanilla", SetupVanilla, false}, {"desiccant", SetupDesiccant, false}, {"snapstart", SetupVanilla, true}}
	as, err := opts.assignments(scale)
	if err != nil {
		return nil, err
	}
	rows, err := runIndexed(opts.Parallel, len(cells), func(i int) (SnapStartRow, error) {
		pcfg, mcfg := cells[i].setup.configs(opts)
		pcfg.Snapshot = cells[i].snapshot
		platform, err := opts.cell(pcfg, mcfg, as, scale).run()
		if err != nil {
			return SnapStartRow{}, err
		}
		st := platform.Stats()
		row := SnapStartRow{
			Setup:        cells[i].name,
			ColdBootRate: st.ColdBootRate(),
			Restores:     st.Restores,
			CacheMB:      float64(platform.MemoryUsed()) / (1 << 20),
			Throughput:   float64(st.Completions) / opts.Replay.Seconds(),
		}
		if st.Latency.Count() > 0 {
			row.P50 = st.Latency.Percentile(50)
			row.P99 = st.Latency.Percentile(99)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &SnapStartResult{Scale: scale, Rows: rows}, nil
}

// Row returns the named setup's row.
func (r *SnapStartResult) Row(setup string) (SnapStartRow, bool) {
	for _, row := range r.Rows {
		if row.Setup == setup {
			return row, true
		}
	}
	return SnapStartRow{}, false
}

// WriteCSV renders the comparison.
func (r *SnapStartResult) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# caching vs SnapStart-style snapshots, scale factor %.0f\n", r.Scale)
	fmt.Fprintln(w, "setup,cold_boot_rate,restores,p50_ms,p99_ms,cache_mb,throughput_rps")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s,%.4f,%d,%.1f,%.1f,%.1f,%.2f\n",
			row.Setup, row.ColdBootRate, row.Restores, row.P50, row.P99, row.CacheMB, row.Throughput)
	}
}
