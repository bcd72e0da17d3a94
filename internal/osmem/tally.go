package osmem

// Tally keeps the summed USS of the address spaces that joined it: the
// FaaS platform's cache occupancy (§4.2), which eviction and
// Desiccant's activation read on every freeze. Every change to a
// member's USS moves the sum with it, the 1→2 and 2→1 page-sharing
// credits of Region.ref/unref included, so destroying a sibling raises
// the survivors' share in the tally as in their own counters. Reading
// the sum is O(1) however many spaces joined.
//
// A space belongs to at most one tally at a time.
type Tally struct {
	pages int64
	n     int
}

// addUSS moves the space's USS credit by k pages, and its tally's sum
// with it. It is the one place ussPages changes. A nil space takes no
// credit, so a run loop can flush before it has found a holder.
func (as *AddressSpace) addUSS(k int64) {
	if as == nil {
		return
	}
	as.ussPages += k
	if as.tally != nil {
		as.tally.pages += k
	}
}

// Join adds as and its current USS to the tally. It panics if as is
// destroyed or already in a tally.
func (t *Tally) Join(as *AddressSpace) {
	as.checkAlive()
	if as.tally != nil {
		panic("osmem: Join of an address space already in a tally")
	}
	as.tally = t
	t.pages += as.ussPages
	t.n++
}

// Leave takes as and its current USS out of the tally. It panics if as
// is not a member.
func (t *Tally) Leave(as *AddressSpace) {
	if as.tally != t {
		panic("osmem: Leave of an address space not in the tally")
	}
	as.tally = nil
	t.pages -= as.ussPages
	t.n--
}

// Has reports whether as is a member, in O(1).
func (t *Tally) Has(as *AddressSpace) bool { return as.tally == t }

// Bytes returns the members' summed USS in bytes.
func (t *Tally) Bytes() int64 { return t.pages * PageSize }

// Len returns the number of members.
func (t *Tally) Len() int { return t.n }
