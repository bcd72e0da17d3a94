package workload

import (
	"errors"
	"testing"

	"desiccant/internal/hotspot"
	"desiccant/internal/mm"
	"desiccant/internal/osmem"
	"desiccant/internal/runtime"
	"desiccant/internal/sim"
	"desiccant/internal/v8heap"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("Table 1 has 20 functions, registry has %d", len(all))
	}
	java := ByLanguage(runtime.Java)
	js := ByLanguage(runtime.JavaScript)
	if len(java) != 8 || len(js) != 12 {
		t.Fatalf("split: %d java, %d js", len(java), len(js))
	}
	for _, s := range all {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if len(Names()) != 20+len(Extras()) {
		t.Fatal("Names() incomplete")
	}
	for _, s := range Extras() {
		if err := s.Validate(); err != nil {
			t.Errorf("extra %s: %v", s.Name, err)
		}
		if s.Language != Python {
			t.Errorf("extra %s: unexpected language %s", s.Name, s.Language)
		}
	}
}

func TestChainLengthsMatchTable1(t *testing.T) {
	want := map[string]int{
		"image-pipeline": 4, "hotel-searching": 3, "mapreduce": 2,
		"specjbb2015": 3, "data-analysis": 6, "alexa": 8,
	}
	for name, n := range want {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.ChainLength != n {
			t.Errorf("%s chain: %d want %d", name, s.ChainLength, n)
		}
		wantName := name + " ("
		if got := s.TableName(); len(got) <= len(name) || got[:len(wantName)] != wantName {
			t.Errorf("TableName: %q", got)
		}
	}
	s, _ := Lookup("fft")
	if s.TableName() != "fft" {
		t.Errorf("plain TableName: %q", s.TableName())
	}
	if s.TotalExecTime() != s.ExecTime {
		t.Error("TotalExecTime for plain function")
	}
	da, _ := Lookup("data-analysis")
	if da.TotalExecTime() != 6*da.ExecTime {
		t.Error("TotalExecTime for chain")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-function"); err == nil {
		t.Fatal("lookup of unknown function succeeded")
	}
}

func TestRuntimeFor(t *testing.T) {
	if RuntimeFor(runtime.Java) != hotspot.RuntimeName {
		t.Fatal("java runtime mapping")
	}
	if RuntimeFor(runtime.JavaScript) != v8heap.RuntimeName {
		t.Fatal("js runtime mapping")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := Spec{
		Name: "x", ChainLength: 1, ExecTime: sim.Millisecond,
		ObjectSize: 1 << 10, AllocPerInvoke: 1 << 20, WorkingSet: 1 << 19,
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.ChainLength = 0 },
		func(s *Spec) { s.ExecTime = 0 },
		func(s *Spec) { s.ObjectSize = 0 },
		func(s *Spec) { s.WorkingSet = s.AllocPerInvoke + s.InitAllocBytes + 1 },
		func(s *Spec) { s.WeakBytes = 1; s.DeoptSlowdown = 0 },
	}
	for i, mutate := range bad {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func newJavaRT(t *testing.T) runtime.Runtime {
	t.Helper()
	m := osmem.NewMachine()
	h, err := hotspot.New(runtime.Config{AddressSpace: m.NewAddressSpace("t"), MemoryBudget: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newJSRT(t *testing.T) runtime.Runtime {
	t.Helper()
	m := osmem.NewMachine()
	h, err := v8heap.New(runtime.Config{AddressSpace: m.NewAddressSpace("t"), MemoryBudget: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStateLiveBytesStableAtExit(t *testing.T) {
	// §4.5.2's first observation: "the number of live bytes in a heap
	// remains quite stable when each function exits".
	spec, _ := Lookup("file-hash")
	rt := newJavaRT(t)
	st := NewState(spec, 0, rt.Objects())
	rng := sim.NewRNG(1)
	var lives []int64
	for i := 0; i < 10; i++ {
		if _, err := st.RunBody(rt, rng); err != nil {
			t.Fatal(err)
		}
		lives = append(lives, rt.LiveBytes())
	}
	for i := 1; i < len(lives); i++ {
		if lives[i] != lives[0] {
			t.Fatalf("live bytes drifted: %v", lives)
		}
	}
	// And close to the calibrated static size (~1.07MB for file-hash).
	if lives[0] != spec.StaticBytes {
		t.Fatalf("live at exit: %d want %d", lives[0], spec.StaticBytes)
	}
}

func TestStateInitSpikeOnlyOnce(t *testing.T) {
	spec, _ := Lookup("hotel-searching")
	rt := newJavaRT(t)
	st := NewState(spec, 0, rt.Objects())
	rng := sim.NewRNG(2)
	rep1, err := st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.AllocatedBytes < spec.InitAllocBytes {
		t.Fatalf("first invocation missing init spike: %d", rep1.AllocatedBytes)
	}
	if rep2.AllocatedBytes > rep1.AllocatedBytes/2 {
		t.Fatalf("second invocation too heavy: %d vs %d", rep2.AllocatedBytes, rep1.AllocatedBytes)
	}
	if st.Invocations() != 2 {
		t.Fatalf("invocations: %d", st.Invocations())
	}
}

// failingRT runs out of memory on every allocation once it has made
// left of them, and promises no headroom, so each cluster is one
// Allocate call.
type failingRT struct {
	runtime.Runtime
	left int
}

func (f *failingRT) Headroom(int64) int64 { return 0 }

func (f *failingRT) Allocate(size int64, opts runtime.AllocOptions) (mm.Ref, error) {
	if f.left == 0 {
		return mm.NoRef, runtime.ErrOutOfMemory
	}
	f.left--
	return f.Runtime.Allocate(size, opts)
}

// TestFailedInitializationRunsOnce: a first body that runs out of
// memory mid-initialization leaves its statics live, and the next body
// on the same heap does not build them a second time.
func TestFailedInitializationRunsOnce(t *testing.T) {
	spec, _ := Lookup("hotel-searching")
	rt := &failingRT{Runtime: newJavaRT(t), left: 200}
	st := NewState(spec, 0, rt.Objects())
	rng := sim.NewRNG(2)
	if _, err := st.RunBody(rt, rng); !errors.Is(err, runtime.ErrOutOfMemory) {
		t.Fatalf("first body: %v, want out of memory during initialization", err)
	}
	statics := len(st.static)
	if statics == 0 {
		t.Fatal("the failed initialization made no static object")
	}
	rt.left = -1
	rep, err := st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.static) != statics || rep.AllocatedBytes >= spec.InitAllocBytes {
		t.Fatalf("second body made %d statics (had %d) and %d bytes: initialization ran again",
			len(st.static), statics, rep.AllocatedBytes)
	}
	if st.Invocations() != 2 {
		t.Fatalf("invocations: %d", st.Invocations())
	}
}

func TestChainIntermediatesStayLiveUntilReleased(t *testing.T) {
	// The mapreduce anomaly: intermediate data is live at the mapper's
	// exit, so even a forced GC cannot reclaim it.
	spec, _ := Lookup("mapreduce")
	rt := newJavaRT(t)
	st := NewState(spec, 0, rt.Objects()) // the mapper stage
	rng := sim.NewRNG(3)
	if _, err := st.RunBody(rt, rng); err != nil {
		t.Fatal(err)
	}
	if st.PendingIntermediateBytes() != spec.IntermediateBytes {
		t.Fatalf("pending intermediates: %d", st.PendingIntermediateBytes())
	}
	rt.CollectFull(false)
	if rt.LiveBytes() != spec.StaticBytes+spec.IntermediateBytes {
		t.Fatalf("GC collected live intermediates: %d", rt.LiveBytes())
	}
	st.ReleaseIntermediates()
	if st.PendingIntermediateBytes() != 0 {
		t.Fatal("release failed")
	}
	rt.CollectFull(false)
	if rt.LiveBytes() != spec.StaticBytes {
		t.Fatalf("intermediates survived release+GC: %d", rt.LiveBytes())
	}
}

func TestLastChainStageProducesNoIntermediate(t *testing.T) {
	spec, _ := Lookup("mapreduce")
	rt := newJavaRT(t)
	st := NewState(spec, spec.ChainLength-1, rt.Objects()) // the reducer
	if _, err := st.RunBody(rt, sim.NewRNG(4)); err != nil {
		t.Fatal(err)
	}
	if st.PendingIntermediateBytes() != 0 {
		t.Fatal("final stage produced intermediates")
	}
}

func TestWeakCacheRebuildAfterAggressiveGC(t *testing.T) {
	spec, _ := Lookup("data-analysis")
	rt := newJSRT(t)
	st := NewState(spec, 0, rt.Objects())
	rng := sim.NewRNG(5)
	if _, err := st.RunBody(rt, rng); err != nil {
		t.Fatal(err)
	}
	rep, err := st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeoptApplied {
		t.Fatal("deopt without aggressive GC")
	}
	// Aggressive collection clears the weak cache: the JIT pays the
	// penalty over a recovery window of invocations.
	rt.CollectFull(true)
	rep, err = st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeoptApplied {
		t.Fatal("deopt not applied after aggressive GC")
	}
	if rep.AllocatedBytes < spec.WeakBytes {
		t.Fatal("weak cache not rebuilt")
	}
	for i := 1; i < deoptRecoveryInvocations; i++ {
		rep, err = st.RunBody(rt, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.DeoptApplied {
			t.Fatalf("deopt window ended early at invocation %d", i)
		}
	}
	rep, err = st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeoptApplied {
		t.Fatal("deopt window did not close")
	}
	// Non-aggressive reclaim does not trigger a new window (§4.7).
	rt.Reclaim(false)
	rep, err = st.RunBody(rt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeoptApplied {
		t.Fatal("deopt after weak-preserving reclaim")
	}
}

func TestStateStageBounds(t *testing.T) {
	spec, _ := Lookup("mapreduce")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stage accepted")
		}
	}()
	NewState(spec, 2, nil)
}

func TestAllFunctionsRunTenIterations(t *testing.T) {
	// Every Table 1 function must execute repeatedly inside a 256MB
	// instance without OOM, on its own runtime.
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			var rt runtime.Runtime
			if spec.Language == runtime.Java {
				rt = newJavaRT(t)
			} else {
				rt = newJSRT(t)
			}
			rng := sim.NewRNG(42)
			for stage := 0; stage < 1; stage++ { // one stage is representative here
				st := NewState(spec, 0, rt.Objects())
				for i := 0; i < 10; i++ {
					if _, err := st.RunBody(rt, rng); err != nil {
						t.Fatalf("iteration %d: %v", i, err)
					}
				}
				st.ReleaseIntermediates()
			}
		})
	}
}
