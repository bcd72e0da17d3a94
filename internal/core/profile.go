// Package core implements Desiccant, the paper's freeze-aware memory
// manager (§4): it activates under memory pressure behind a dynamic
// threshold, selects frozen instances by estimated reclamation
// throughput using profiles collected from previous reclamations, and
// drives the runtimes' reclaim interface to return frozen garbage to
// the OS — optionally unmapping privately-held shared libraries (§4.6)
// and avoiding aggressive weak-reference collection (§4.7).
package core

import (
	"desiccant/internal/container"
	"desiccant/internal/sim"
)

// avgProfile is a running average of reclamation observations.
type avgProfile struct {
	n         int64
	liveBytes float64
	cpuMicros float64
}

func (a *avgProfile) add(liveBytes int64, cpu sim.Duration) {
	a.n++
	inv := 1 / float64(a.n)
	a.liveBytes += (float64(liveBytes) - a.liveBytes) * inv
	a.cpuMicros += (float64(cpu) - a.cpuMicros) * inv
}

// functionKey names one stage of one function, the per-function
// aggregate's key.
type functionKey struct {
	name  string
	stage int
}

// profileDB stores per-instance profiles (keyed by instance ID) plus
// per-function and global aggregates, implementing §4.5.2's
// estimation fallback chain: instance average → same-function average
// → global average.
type profileDB struct {
	byInstance map[int]*avgProfile
	byFunction map[functionKey]*avgProfile
	global     avgProfile
}

func newProfileDB() *profileDB {
	return &profileDB{
		byInstance: make(map[int]*avgProfile),
		byFunction: make(map[functionKey]*avgProfile),
	}
}

// record folds one reclamation observation into all three levels.
func (db *profileDB) record(inst *container.Instance, liveBytes int64, cpu sim.Duration) {
	p := db.byInstance[inst.ID]
	if p == nil {
		p = &avgProfile{}
		db.byInstance[inst.ID] = p
	}
	p.add(liveBytes, cpu)

	key := functionKey{inst.Spec.Name, inst.Stage}
	f := db.byFunction[key]
	if f == nil {
		f = &avgProfile{}
		db.byFunction[key] = f
	}
	f.add(liveBytes, cpu)
	db.global.add(liveBytes, cpu)
}

// forget drops instance id's profile when the platform destroys it
// ("its profiles are also abandoned to reduce the memory overhead").
// The function and global aggregates are retained: they are what new
// instances are estimated from.
func (db *profileDB) forget(id int) {
	delete(db.byInstance, id)
}

// defaultCPUEstimate seeds the estimator before any profile exists: an
// optimistic small cost so the first reclamation happens and teaches
// the estimator real numbers.
const defaultCPUEstimate = 20 * sim.Millisecond

// estimate returns the expected live bytes and reclamation CPU time
// for an instance, walking the fallback chain.
func (db *profileDB) estimate(inst *container.Instance) (liveBytes int64, cpu sim.Duration) {
	if p := db.byInstance[inst.ID]; p != nil && p.n > 0 {
		return int64(p.liveBytes), sim.Duration(p.cpuMicros)
	}
	if f := db.byFunction[functionKey{inst.Spec.Name, inst.Stage}]; f != nil && f.n > 0 {
		return int64(f.liveBytes), sim.Duration(f.cpuMicros)
	}
	if db.global.n > 0 {
		return int64(db.global.liveBytes), sim.Duration(db.global.cpuMicros)
	}
	return 0, defaultCPUEstimate
}

// instanceCount reports how many per-instance profiles are held.
func (db *profileDB) instanceCount() int { return len(db.byInstance) }
