package container

import (
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"desiccant/internal/osmem"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

// lifeMallocs pins the Go mallocs of one whole instance life per Table
// 1 function once the process-wide pools are warm: boot, the first
// invocation, lifeWarm warm invocations and the teardown the platform
// performs. The count covers everything the life allocates that no
// pool recycles (the instance, its address space and regions, the heap
// structs, the V8 chunk structs, the osmem page arrays a pool could
// not supply). A change that adds or removes an allocation anywhere on
// the cold path moves it; such a change updates the table and says why.
var lifeMallocs = map[string]uint64{
	// Java, on hotspot-serial.
	"time": 25, "sort": 25, "file-hash": 25, "image-resize": 25,
	"image-pipeline": 25, "hotel-searching": 25, "mapreduce": 25, "specjbb2015": 25,
	// JavaScript, on v8: most of the difference is chunk structs, which
	// a heap reuses but the next heap does not inherit.
	"clock": 40, "dynamic-html": 64, "factor": 46, "fft": 215,
	"fibonacci": 45, "filesystem": 63, "matrix": 142, "pi": 43,
	"unionfind": 101, "web-server": 91, "data-analysis": 116, "alexa": 58,
}

// lifeWarm is the number of warm invocations in a measured life, and
// lifeWarmUp the number of lives before the measured ones.
const (
	lifeWarm   = 3
	lifeWarmUp = 16
)

// TestInstanceLifeMallocs: see lifeMallocs. Each life draws the same
// random stream, so every life does the same simulated work.
func TestInstanceLifeMallocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops items at random")
			}
		}
	}
	// Turning the collector off keeps it from emptying the pools
	// between lives, and one P gives every pool one shard.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	for _, spec := range workload.All() {
		m := osmem.NewMachine()
		life := func() uint64 {
			rng := sim.NewRNG(1)
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			// The same ID every life names the same library files, so
			// the machine's file table stops growing after the first.
			inst, err := New(m, 1, spec, 0, 0, defaultOpts(false))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= lifeWarm; i++ {
				inst.BeginRun(0)
				if _, _, _, err := inst.InvokeBody(rng); err != nil {
					t.Fatal(err)
				}
				inst.State.ReleaseIntermediates()
				inst.Freeze(0)
			}
			inst.Kill()
			m.Destroy(inst.AS)
			inst.State.Release()
			inst.Runtime.Release()
			goruntime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		// A pool's lists settle into their roles over a few lives.
		for i := 0; i < lifeWarmUp; i++ {
			life()
		}
		got, again := life(), life()
		if want, ok := lifeMallocs[spec.Name]; !ok || got != want || again != want {
			t.Errorf("%s: %d then %d mallocs per instance life, want %d", spec.Name, got, again, want)
		}
	}
}
