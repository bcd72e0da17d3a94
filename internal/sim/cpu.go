package sim

import (
	"fmt"
	"math"
)

// CPUAccount accumulates CPU time consumed by a task whose CPU share
// changes over the course of its execution, exactly as §4.5.2 of the
// paper computes reclamation cost: "suppose the reclamation takes 10ms
// to finish, and its cgroup has 0.5 CPUs in the first 3ms and 0.25 in
// the rest, then its accumulated CPU time is 3.25ms".
//
// The account is driven by SetShare calls as the platform rebalances
// CPUs and closed with Finish, which returns the accumulated CPU time.
type CPUAccount struct {
	lastAt    Time
	share     float64
	accum     float64 // microseconds of CPU time
	finished  bool
	startedAt Time
}

// NewCPUAccount opens an account at time now with the given initial
// CPU share (e.g. 0.5 for half a core).
func NewCPUAccount(now Time, share float64) *CPUAccount {
	return &CPUAccount{lastAt: now, share: share, startedAt: now}
}

// SetShare records that from time now onward the task runs with the
// given share. Elapsed time since the previous change is charged at
// the previous share.
func (a *CPUAccount) SetShare(now Time, share float64) {
	a.settle(now)
	a.share = share
}

// Finish closes the account at time now and returns the accumulated
// CPU time. Further calls return the same value.
func (a *CPUAccount) Finish(now Time) Duration {
	if !a.finished {
		a.settle(now)
		a.finished = true
	}
	return Duration(a.accum + 0.5)
}

// Accumulated returns the CPU time charged so far without closing the
// account.
func (a *CPUAccount) Accumulated(now Time) Duration {
	a.settle(now)
	return Duration(a.accum + 0.5)
}

// Elapsed returns wall-clock time since the account was opened.
func (a *CPUAccount) Elapsed(now Time) Duration { return now.Sub(a.startedAt) }

func (a *CPUAccount) settle(now Time) {
	if now < a.lastAt {
		panic("sim: CPUAccount time went backwards")
	}
	a.accum += float64(now.Sub(a.lastAt)) * a.share
	a.lastAt = now
}

// WorkDuration converts an amount of CPU work (expressed as the time
// it would take on one full core) into wall-clock time at the given
// share. A task needing 10ms of core time at share 0.25 takes 40ms.
// It panics when the result does not fit a Duration rather than
// letting the conversion wrap into the past.
func WorkDuration(coreTime Duration, share float64) Duration {
	if share <= 0 {
		panic("sim: non-positive CPU share")
	}
	wall := float64(coreTime)/share + 0.5
	if wall >= math.MaxInt64 || wall <= math.MinInt64 {
		panic(fmt.Sprintf("sim: WorkDuration(%v, %g) overflows a Duration", coreTime, share))
	}
	return Duration(wall)
}
