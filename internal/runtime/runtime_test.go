package runtime

import (
	"errors"
	"testing"

	"desiccant/internal/mm"
	"desiccant/internal/sim"
)

// stubRuntime is the minimal Runtime used to exercise the registry.
type stubRuntime struct{ cfg Config }

func (s *stubRuntime) Allocate(int64, AllocOptions) (mm.Ref, error) { return mm.NoRef, ErrOutOfMemory }
func (s *stubRuntime) Headroom(int64) int64                         { return 0 }
func (s *stubRuntime) AllocateRun(int64, int32) mm.Ref              { return mm.NoRef }
func (s *stubRuntime) Objects() *mm.ObjectPool                      { return nil }
func (s *stubRuntime) CollectFull(bool)                             {}
func (s *stubRuntime) Reclaim(bool) ReclaimReport                   { return ReclaimReport{} }
func (s *stubRuntime) LiveBytes() int64                             { return 0 }
func (s *stubRuntime) HeapCommitted() int64                         { return 0 }
func (s *stubRuntime) HeapRange() (int64, int64)                    { return 0, 0 }
func (s *stubRuntime) DrainGCCost() sim.Duration                    { return 0 }
func (s *stubRuntime) ConsumeDeoptPenalty() float64                 { return 0 }
func (s *stubRuntime) Release()                                     {}

func TestRegisterAndNew(t *testing.T) {
	Register("stub-test", func(cfg Config) (*stubRuntime, error) { return &stubRuntime{cfg: cfg}, nil })
	rt, err := New("stub-test", Config{MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rt.(*stubRuntime); !ok || s.cfg.MemoryBudget != 1 {
		t.Fatalf("New built %#v", rt)
	}
	found := false
	for _, n := range Registered() {
		if n == "stub-test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Registered() missing stub-test: %v", Registered())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	Register("stub-dup", func(cfg Config) (*stubRuntime, error) { return &stubRuntime{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	Register("stub-dup", func(cfg Config) (*stubRuntime, error) { return &stubRuntime{}, nil })
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("definitely-not-registered", Config{}); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

// A constructor's error reaches New's caller as a nil Runtime, never
// as a non-nil interface around a nil model.
func TestNewPassesConstructorError(t *testing.T) {
	errTooSmall := errors.New("budget too small")
	Register("stub-fail", func(cfg Config) (*stubRuntime, error) { return nil, errTooSmall })
	rt, err := New("stub-fail", Config{})
	if !errors.Is(err, errTooSmall) || rt != nil {
		t.Fatalf("New = %v, %v", rt, err)
	}
}

func TestErrOutOfMemoryIdentity(t *testing.T) {
	rt := &stubRuntime{}
	_, err := rt.Allocate(1, AllocOptions{})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err: %v", err)
	}
}
