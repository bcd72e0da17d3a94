package desiccant_test

import (
	"fmt"

	"desiccant"
)

// The smallest end-to-end use: build a simulation with Desiccant
// attached, submit two requests to the same function, and observe that
// the second one found a warm (cached, frozen) instance.
func ExampleNewSimulation() {
	sim, err := desiccant.NewSimulation(desiccant.Config{EnableDesiccant: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sim.Close()

	sim.Platform.SubmitName("fft", 0)
	sim.Platform.SubmitName("fft", desiccant.Time(desiccant.Seconds(2)))
	sim.RunFor(desiccant.Seconds(10))

	st := sim.Platform.Stats()
	fmt.Println("completions:", st.Completions)
	fmt.Println("cold boots:", st.ColdBoots)
	fmt.Println("warm starts:", st.WarmStarts)
	// Output:
	// completions: 2
	// cold boots: 1
	// warm starts: 1
}

// Replaying an Azure-style trace against the paper's default platform:
// the returned request count and the platform counters are exact,
// deterministic functions of the seed.
func ExampleSimulation_ReplayTrace() {
	sim, err := desiccant.NewSimulation(desiccant.Config{EnableDesiccant: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer sim.Close()

	n, err := sim.ReplayTrace(11, 2.0, 0, desiccant.Time(desiccant.Seconds(30)), 10)
	if err != nil {
		fmt.Println(err)
		return
	}
	sim.RunUntil(desiccant.Time(desiccant.Seconds(60)))

	fmt.Println("scheduled:", n == int(sim.Platform.Stats().Requests))
	fmt.Println("all completed:", sim.Platform.Stats().Completions == sim.Platform.Stats().Requests)
	// Output:
	// scheduled: true
	// all completed: true
}

// The workload registry carries the paper's Table 1 plus the Python
// extension suite.
func ExampleFunctions() {
	fmt.Println("table 1 functions:", len(desiccant.Functions()))
	fmt.Println("extension functions:", len(desiccant.ExtraFunctions()))
	spec, _ := desiccant.LookupFunction("mapreduce")
	fmt.Println("mapreduce chain length:", spec.ChainLength)
	// Output:
	// table 1 functions: 20
	// extension functions: 3
	// mapreduce chain length: 2
}
