package container

import (
	"testing"

	"desiccant/internal/osmem"
	"desiccant/internal/pyarena"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/workload"
)

func TestPrewarmedAssign(t *testing.T) {
	m := osmem.NewMachine()
	pw, err := NewPrewarmed(m, 1, runtime.JavaScript, defaultOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	if pw.USS() == 0 {
		t.Fatal("stem cell has no footprint")
	}
	spec, _ := workload.Lookup("fft")
	inst, err := pw.Assign(spec, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Spec != spec || inst.Runtime == nil || inst.Status() != Idle {
		t.Fatal("assignment incomplete")
	}
	// The instance is fully functional.
	inst.BeginRun(6)
	if _, _, _, err := inst.InvokeBody(sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	// Reuse is a bug.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reuse did not panic")
			}
		}()
		pw.Assign(spec, 0, 7)
	}()
}

func TestPrewarmedLanguageMismatch(t *testing.T) {
	m := osmem.NewMachine()
	pw, err := NewPrewarmed(m, 1, runtime.Java, defaultOpts(true))
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Lookup("fft") // JavaScript
	if _, err := pw.Assign(spec, 0, 0); err == nil {
		t.Fatal("cross-language assignment accepted")
	}
}

func TestPrewarmedDestroy(t *testing.T) {
	m := osmem.NewMachine()
	pw, err := NewPrewarmed(m, 1, runtime.JavaScript, defaultOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	pw.Destroy()
	if m.PhysPages() != 0 {
		t.Fatalf("leak after destroy: %d pages", m.PhysPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("destroy of used stem cell did not panic")
			}
		}()
		pw.Destroy()
	}()
}

func TestPythonInstance(t *testing.T) {
	// The §7 extension: a Python function on the pyarena runtime,
	// through the ordinary container path.
	m := osmem.NewMachine()
	inst := newInstance(t, m, 1, "py-etl", 0, true)
	if _, ok := inst.Runtime.(*pyarena.Heap); !ok {
		t.Fatalf("runtime: %T", inst.Runtime)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 10; i++ {
		inst.BeginRun(sim.Time(i) * 1000)
		if _, _, _, err := inst.InvokeBody(rng); err != nil {
			t.Fatal(err)
		}
		inst.Freeze(sim.Time(i)*1000 + 500)
	}
	before := inst.USS()
	rep := inst.Reclaim(false, true)
	if rep.ReleasedBytes <= 0 || inst.USS() >= before {
		t.Fatalf("python reclaim ineffective: released=%d uss %d->%d",
			rep.ReleasedBytes, before, inst.USS())
	}
}
