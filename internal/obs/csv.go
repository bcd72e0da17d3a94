package obs

import (
	"bufio"
	"io"
	"strconv"

	"desiccant/internal/sim"
)

// Sampler snapshots a Registry on a fixed sim-time cadence by
// scheduling itself on the engine, writing each snapshot as rows of
// the long-form CSV time-series export the moment it is taken. Nothing
// is retained, so memory stays flat no matter how long the run is.
// The first sample is taken at the instant the sampler is started.
type Sampler struct {
	eng   *sim.Engine
	reg   *Registry
	every sim.Duration

	// OnSample, when set, runs immediately before each snapshot so
	// callers can refresh gauges sourced outside the event stream
	// (e.g. OS page counters).
	OnSample func(*Registry)

	next    *sim.Event
	stopped bool

	w      *bufio.Writer
	err    error
	lastAt sim.Time
	taken  int
}

// NewSampler returns a sampler that snapshots reg every `every` of
// sim time, starting at eng's current instant. It writes the
// time_us,metric,value header to w at once and each snapshot's rows as
// the snapshot is taken — one row per metric, in the snapshot's
// sorted-name order, so output bytes depend only on the simulation.
// With a nil w the snapshots only drive OnSample. Write errors are
// sticky and reported by Flush.
func NewSampler(eng *sim.Engine, reg *Registry, every sim.Duration, w io.Writer) *Sampler {
	if every <= 0 {
		panic("obs: sampler interval must be positive")
	}
	s := &Sampler{eng: eng, reg: reg, every: every}
	if w != nil {
		s.w = bufio.NewWriter(w)
		_, s.err = s.w.WriteString("time_us,metric,value\n")
	}
	s.next = eng.At(eng.Now(), "obs:sample", s.tick)
	return s
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.take()
	s.next = s.eng.After(s.every, "obs:sample", s.tick)
}

// Flush flushes the writer and returns the first error any write hit.
// A no-op without a writer.
func (s *Sampler) Flush() error {
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

func (s *Sampler) take() {
	if s.OnSample != nil {
		s.OnSample(s.reg)
	}
	s.lastAt = s.eng.Now()
	s.taken++
	if s.w == nil || s.err != nil {
		return
	}
	ts := strconv.FormatInt(int64(s.lastAt), 10)
	for _, mv := range s.reg.Snapshot() {
		s.w.WriteString(ts)
		s.w.WriteByte(',')
		s.w.WriteString(mv.Name)
		s.w.WriteByte(',')
		s.w.WriteString(FormatValue(mv.Value))
		if s.err = s.w.WriteByte('\n'); s.err != nil {
			return
		}
	}
}

// Stop cancels future ticks and, unless one was already taken at this
// instant, records a final snapshot so the series always ends at the
// stop time.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.next.Cancel()
	if s.taken == 0 || s.lastAt != s.eng.Now() {
		s.take()
	}
}

// FormatValue renders floats deterministically: integral values print
// without an exponent or trailing zeros ("42"), everything else via
// the shortest round-trip representation.
func FormatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
