// Custom runtime: plugging a third language into Desiccant.
//
// §7 of the paper argues Desiccant ports to any runtime that can
// (1) estimate reclamation throughput and (2) tell which memory is
// free — and sketches how a CPython-style arena allocator would do it.
// internal/pyarena implements that sketch as a full runtime.Runtime;
// this example registers-and-drives it the way a FaaS instance would,
// then shows Desiccant's reclaim interface releasing the frozen
// garbage the stock allocator keeps pinned, and computes the §4.5.2
// reclamation-throughput estimate the manager would use to rank the
// instance.
//
// Run it with:
//
//	go run ./examples/custom-runtime
package main

import (
	"fmt"
	"log"

	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"

	// Registering a runtime is one blank import — the same way the
	// built-in HotSpot and V8 simulators register themselves.
	_ "desiccant/internal/pyarena"
)

func main() {
	machine := osmem.NewMachine()
	as := machine.NewAddressSpace("python-function")
	rt, err := runtime.New("pyarena", runtime.Config{
		AddressSpace: as,
		MemoryBudget: 256 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Simulate a Python FaaS function whose long-lived module state is
	// interleaved with per-invocation temporaries, so nearly every
	// arena ends up pinned by at least one live object — CPython's
	// classic fragmentation story. An allocation returns an mm.Ref, a
	// handle into the heap's object pool; the function kills its
	// temporaries through the pool when it returns.
	alloc := func(size int64) mm.Ref {
		r, err := rt.Allocate(size, runtime.AllocOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	var temps []mm.Ref
	for invocation := 0; invocation < 40; invocation++ {
		temps = temps[:0]
		for i := 0; i < 200; i++ {
			temps = append(temps, alloc(12<<10))
			if i%25 == 0 {
				alloc(4 << 10) // long-lived module state, never dies
			}
		}
		for _, r := range temps {
			rt.Objects().At(r).Dead = true
		}
	}

	resident := func() float64 { return float64(as.USS()) / (1 << 20) }
	fmt.Printf("after 40 frozen invocations:  USS=%5.2f MiB, live=%.2f MiB\n",
		resident(), float64(rt.LiveBytes())/(1<<20))

	// The stock collector frees the blocks but cannot release
	// partially occupied arenas.
	rt.CollectFull(false)
	rt.DrainGCCost()
	fmt.Printf("after stock CPython GC:       USS=%5.2f MiB (arenas pinned by live objects)\n", resident())

	// Desiccant's reclaim interface uses the free-list knowledge.
	rep := rt.Reclaim(false)
	fmt.Printf("after Desiccant reclaim:      USS=%5.2f MiB (released %.2f MiB in %v)\n",
		resident(), float64(rep.ReleasedBytes)/(1<<20), rep.CPUCost)

	// §4.5.2's estimate, exactly as the manager would compute it for
	// this brand-new runtime.
	if rep.CPUCost > 0 {
		throughput := float64(rep.ReleasedBytes) / rep.CPUCost.Seconds() / (1 << 20)
		fmt.Printf("reclamation throughput: %.0f MiB per CPU-second\n", throughput)
	}
}
