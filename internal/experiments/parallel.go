package experiments

import (
	gort "runtime"
	"sync"
	"sync/atomic"
)

// This file is the experiment suite's parallel execution layer.
// DESIGN.md §2 guarantees every sub-simulation is a pure function of
// (seed, parameters): each one builds its own sim.Engine, osmem.Machine
// and RNG, and the package-level registries (workload specs, runtime
// factories) are sealed after init. That makes sweeps embarrassingly
// parallel — the only correctness obligation is deterministic
// collection, which ForEach provides by giving every task index its own
// result slot and assembling output strictly in index order. CSV
// written from a parallel run is therefore byte-identical to the serial
// run at the same seed.

// Parallelism resolves a worker-count option: n itself when positive,
// otherwise GOMAXPROCS.
func Parallelism(n int) int {
	if n > 0 {
		return n
	}
	return gort.GOMAXPROCS(0)
}

// ForEach runs fn(0) … fn(n-1) across up to Parallelism(workers)
// goroutines. Tasks must not share mutable state; each fn call may only
// write results keyed by its own index. All tasks run to completion
// even when one fails, and the returned error is the lowest-index
// failure — the same error a serial loop stopping at the first failure
// would have reported, so error output is deterministic too.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Parallelism(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runIndexed fans fn out over [0, n) and collects the results in index
// order, so downstream aggregation sees them exactly as a serial loop
// would have produced them.
func runIndexed[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
