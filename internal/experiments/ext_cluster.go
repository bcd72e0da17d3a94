package experiments

import (
	"fmt"
	"io"

	"desiccant/internal/cluster"
	"desiccant/internal/sim"
	"desiccant/internal/trace"
)

// ClusterSweepOptions parameterizes the ext-cluster experiment family:
// a Zipfian multi-function trace replayed over the internal/cluster
// fleet once per placement policy × manager mode, plus a COCOA-style
// capacity grid (nodes × per-node RAM → cold-start SLO) under the
// best policy. Sub-runs are pure functions of their options, so the
// sweep fans out through the package's deterministic-collection pool
// and the CSV is byte-identical at any -parallel setting.
type ClusterSweepOptions struct {
	// Nodes is the policy × mode table's fleet size.
	Nodes int
	// Parallel bounds the sweep's worker pool (0 = GOMAXPROCS).
	Parallel int
	// Window, Scale, Synthetic, CacheBytes and ZipfSkew are every
	// cell's cluster.Options fields of the same names.
	Window     sim.Duration
	Scale      float64
	CacheBytes int64
	ZipfSkew   float64
	trace.Synthetic
	// Modes are the table's manager modes; each runs under every
	// placement policy in cluster.PolicyNames.
	Modes []string
	// Migration arms the relief valve for every dynamic cell.
	Migration cluster.Migration
	// GridNodes × GridCache spans the capacity grid, replayed under
	// the garbage-aware policy in reclaim mode.
	GridNodes []int
	GridCache []int64
}

// sloColdBoot is the capacity grid's cold-start SLO.
const sloColdBoot = 0.3

// DefaultClusterSweepOptions returns the committed 16-node sweep over
// every policy × mode, with a 16–64 node capacity grid.
func DefaultClusterSweepOptions() ClusterSweepOptions {
	return ClusterSweepOptions{
		Nodes:      16,
		Window:     60 * sim.Second,
		Scale:      15,
		CacheBytes: 256 << 20,
		ZipfSkew:   0.9,
		Synthetic:  trace.Synthetic{Seed: 11, Functions: 400, BaseRate: 2.2},
		Modes:      cluster.Modes,
		Migration:  cluster.DefaultMigration(),
		GridNodes:  []int{16, 32, 64},
		GridCache:  []int64{128 << 20, 256 << 20, 512 << 20},
	}
}

// runCell replays one cell and checks its conservation invariants.
func (o ClusterSweepOptions) runCell(nodes int, cache int64, policy, mode string) (*cluster.Result, error) {
	res, err := cluster.Run(cluster.Options{
		Nodes: nodes, Window: o.Window, Scale: o.Scale, CacheBytes: cache,
		ZipfSkew: o.ZipfSkew, Synthetic: o.Synthetic,
		Policy: policy, Mode: mode, Migration: o.Migration,
	})
	if err != nil {
		return nil, err
	}
	return res, res.CheckConsistency()
}

// ClusterCell is one policy × mode replay of the table.
type ClusterCell struct {
	Policy string
	Mode   string
	Res    *cluster.Result
}

// ClusterSweepResult is the family's full measurement.
type ClusterSweepResult struct {
	Nodes int
	Cells []ClusterCell
	Grid  []cluster.CapacityPoint
	SLO   float64
}

// Cell returns the table cell for (policy, mode).
func (r *ClusterSweepResult) Cell(policy, mode string) (*cluster.Result, bool) {
	for _, c := range r.Cells {
		if c.Policy == policy && c.Mode == mode {
			return c.Res, true
		}
	}
	return nil, false
}

// RunClusterSweep replays the policy × mode table and the capacity
// grid, fanning cells out over the deterministic worker pool.
func RunClusterSweep(o ClusterSweepOptions) (*ClusterSweepResult, error) {
	if len(o.Modes) == 0 {
		return nil, fmt.Errorf("experiments: cluster sweep needs at least one mode")
	}
	type cellKey struct {
		policy, mode string
	}
	keys := make([]cellKey, 0, len(cluster.PolicyNames)*len(o.Modes))
	for _, policy := range cluster.PolicyNames {
		for _, mode := range o.Modes {
			keys = append(keys, cellKey{policy, mode})
		}
	}
	cells, err := runIndexed(o.Parallel, len(keys), func(i int) (ClusterCell, error) {
		k := keys[i]
		res, err := o.runCell(o.Nodes, o.CacheBytes, k.policy, k.mode)
		if err != nil {
			return ClusterCell{}, fmt.Errorf("cell %s/%s: %w", k.policy, k.mode, err)
		}
		return ClusterCell{Policy: k.policy, Mode: k.mode, Res: res}, nil
	})
	if err != nil {
		return nil, err
	}

	type gridKey struct {
		nodes int
		cache int64
	}
	gkeys := make([]gridKey, 0, len(o.GridNodes)*len(o.GridCache))
	for _, n := range o.GridNodes {
		for _, c := range o.GridCache {
			gkeys = append(gkeys, gridKey{n, c})
		}
	}
	grid, err := runIndexed(o.Parallel, len(gkeys), func(i int) (cluster.CapacityPoint, error) {
		k := gkeys[i]
		res, err := o.runCell(k.nodes, k.cache, cluster.PolicyGarbageAware, "reclaim")
		if err != nil {
			return cluster.CapacityPoint{}, fmt.Errorf("grid %dx%dMB: %w", k.nodes, k.cache>>20, err)
		}
		return cluster.CapacityPoint{Nodes: k.nodes, CacheBytes: k.cache, Res: res}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ClusterSweepResult{Nodes: o.Nodes, Cells: cells, Grid: grid, SLO: sloColdBoot}, nil
}

// WriteCSV renders the policy × mode table followed by the capacity
// curve. Byte-identical at any -parallel setting.
func (r *ClusterSweepResult) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# cluster sweep: %d nodes, policy x mode\n", r.Nodes)
	// deaths (always 0) keeps testdata/golden_cluster_sweep.csv's bytes.
	fmt.Fprintln(w, "policy,mode,completions,cold_boot_rate,p99_ms,headroom_x,evictions,migrations,deaths")
	for _, c := range r.Cells {
		res := c.Res
		var evictions int64
		for _, row := range res.Rows {
			evictions += row.Evictions
		}
		fmt.Fprintf(w, "%s,%s,%d,%.4f,%.1f,%.2f,%d,%d,0\n",
			c.Policy, c.Mode, res.Completions, res.ColdBootRate(),
			res.Fleet.Quantile(0.99), res.HeadroomX(), evictions, res.MigratedOut)
	}
	cluster.WriteCapacityCSV(w, r.Grid, r.SLO)
}
