// Quickstart: watch frozen garbage appear and get reclaimed.
//
// This example runs one FaaS function (the paper's fft) repeatedly
// inside a single 256 MiB instance, freezes the instance after every
// invocation the way OpenWhisk pauses containers, and prints the
// memory accounting at each step — then calls Desiccant's reclaim
// interface and prints the drop.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"desiccant/internal/container"
	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func main() {
	machine := osmem.NewMachine()
	spec, err := workload.Lookup("fft")
	if err != nil {
		log.Fatal(err)
	}

	inst, err := container.New(machine, 1, spec, 0, 0, container.Options{
		MemoryBudget:   256 << 20,
		ShareLibraries: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	rng := sim.NewRNG(42)
	clock := sim.Time(0)

	fmt.Println("invocation | USS (MiB) | live (MiB) | frozen garbage (MiB)")
	for i := 1; i <= 100; i++ {
		clock = clock.Add(sim.Second)
		inst.BeginRun(clock)
		if _, _, _, err := inst.InvokeBody(rng); err != nil {
			log.Fatalf("invocation %d: %v", i, err)
		}
		inst.Freeze(clock)

		if i%20 == 0 || i == 1 {
			uss := inst.USS()
			live := inst.Runtime.LiveBytes()
			fmt.Printf("%10d | %9.2f | %10.2f | %20.2f\n",
				i, mb(uss), mb(live), mb(uss-live))
		}
	}

	fmt.Println("\nThe instance is frozen: its threads are paused, so the")
	fmt.Println("runtime will never collect that garbage on its own.")

	before := inst.USS()
	report := inst.Reclaim(false /* keep weak refs, §4.7 */, true /* unmap private libs, §4.6 */)
	after := inst.USS()

	fmt.Printf("\nDesiccant reclaim: released %.2f MiB in %v of CPU time\n",
		mb(report.ReleasedBytes), report.CPUCost)
	fmt.Printf("USS %.2f MiB -> %.2f MiB (%.2fx reduction, live set %.2f MiB)\n",
		mb(before), mb(after), float64(before)/float64(after), mb(report.LiveBytes))

	// The instance still works: thaw and run again.
	clock = clock.Add(sim.Second)
	inst.BeginRun(clock)
	if _, _, faultCost, err := inst.InvokeBody(rng); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("\nNext invocation still works; it paid %v of page-fault cost\n", faultCost)
		fmt.Println("to re-touch released pages (the §5.6 overhead).")
	}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
