package experiments

import (
	"fmt"
	"io"
)

// PrewarmRow is one 2×2 cell of the prewarm/Desiccant composition
// experiment.
type PrewarmRow struct {
	Prewarm      bool
	Desiccant    bool
	ColdBootRate float64
	PrewarmHits  int64
	P99          float64
	CacheMB      float64
}

// PrewarmResult is the §6.1 orthogonality extension: stem-cell
// pre-warming (FaaSCache/OpenWhisk-style policies) composes with
// Desiccant — pre-warming shortens the boots that still happen,
// Desiccant makes them rarer.
type PrewarmResult struct {
	Scale float64
	Rows  []PrewarmRow
}

// Row returns the cell for (prewarm, desiccant).
func (r *PrewarmResult) Row(prewarm, desiccant bool) (PrewarmRow, bool) {
	for _, row := range r.Rows {
		if row.Prewarm == prewarm && row.Desiccant == desiccant {
			return row, true
		}
	}
	return PrewarmRow{}, false
}

// RunPrewarm measures the 2×2 grid on the same trace; the four cells
// are independent simulations and run concurrently on the pool.
func RunPrewarm(opts Fig9Options, scale float64) (*PrewarmResult, error) {
	type cell struct{ prewarm, desiccant bool }
	grid := []cell{{false, false}, {false, true}, {true, false}, {true, true}}
	as, err := opts.assignments(scale)
	if err != nil {
		return nil, err
	}
	rows, err := runIndexed(opts.Parallel, len(grid), func(i int) (PrewarmRow, error) {
		prewarm, desiccant := grid[i].prewarm, grid[i].desiccant
		setup := SetupVanilla
		if desiccant {
			setup = SetupDesiccant
		}
		pcfg, mcfg := setup.configs(opts)
		if prewarm {
			pcfg.PrewarmPerLanguage = 2
		}
		platform, err := opts.cell(pcfg, mcfg, as, scale).run()
		if err != nil {
			return PrewarmRow{}, err
		}
		st := platform.Stats()
		row := PrewarmRow{
			Prewarm:      prewarm,
			Desiccant:    desiccant,
			ColdBootRate: st.ColdBootRate(),
			PrewarmHits:  st.PrewarmHits,
			CacheMB:      float64(platform.MemoryUsed()) / (1 << 20),
		}
		if st.Latency.Count() > 0 {
			row.P99 = st.Latency.Percentile(99)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &PrewarmResult{Scale: scale, Rows: rows}, nil
}

// WriteCSV renders the grid.
func (r *PrewarmResult) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# pre-warming composes with Desiccant, scale factor %.0f\n", r.Scale)
	fmt.Fprintln(w, "prewarm,desiccant,cold_boot_rate,prewarm_hits,p99_ms,cache_mb")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%t,%t,%.4f,%d,%.1f,%.1f\n",
			row.Prewarm, row.Desiccant, row.ColdBootRate, row.PrewarmHits, row.P99, row.CacheMB)
	}
}
