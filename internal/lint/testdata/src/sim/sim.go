// Package sim is a minimal stub of desiccant/internal/sim for hermetic
// analyzer fixtures; rngshare matches the RNG type by package-path
// suffix, so this stub exercises the same code path as the real
// package.
package sim

// An RNG stub.
type RNG struct{ state uint64 }

// NewRNG stub.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork stub.
func (r *RNG) Fork(id uint64) *RNG { return &RNG{state: r.state ^ id} }

// Uint64 stub.
func (r *RNG) Uint64() uint64 { r.state++; return r.state }

// Float64 stub.
func (r *RNG) Float64() float64 { return float64(r.Uint64()) }

// Time and Duration stubs: the named tick currencies unitcheck
// recognizes by type.
type Time int64

// Duration stub.
type Duration int64
