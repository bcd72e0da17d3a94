package osmem

import (
	"fmt"
	"sort"
)

// Audit recounts the machine's page accounting from first principles
// and returns a description of every inconsistency found (empty when
// the books balance). It exists for the invariant checker: the
// incremental counters (Region.resident, Machine.physPages, file
// refcounts and holders, AddressSpace.ussPages, the tallies) are what every
// USS/RSS/PSS query reads, so a drift between them and the underlying
// page states — a double-free, a missed decrement, a stale refcount —
// would silently corrupt every experiment. Audit is O(total mapped pages); callers run it on a
// bounded cadence, not per event.
func (m *Machine) Audit() []string {
	var bad []string

	var physSum, swapSum int64
	fileRefs := make(map[*FileObject][]int32)
	fileHolders := make(map[*FileObject][]int32)

	spaces := m.AppendAddressSpaces(nil)
	uss := make([]int64, len(spaces)) // recounted private pages per space
	for k, as := range spaces {
		for _, r := range as.Regions() {
			var resident, swapped int64
			for i := int64(0); i < int64(len(r.pb)); i++ {
				switch r.pb[i] & pageStateMask {
				case pageResident:
					resident++
				case pageSwapped:
					swapped++
				case pageNotPresent:
					if r.pb[i]&pageDirty != 0 {
						bad = append(bad, fmt.Sprintf(
							"region %s/%s: page %d not present but dirty",
							as.label, r.Name, i))
					}
				default:
					bad = append(bad, fmt.Sprintf(
						"region %s/%s: page %d has invalid state byte %#x",
						as.label, r.Name, i, r.pb[i]))
				}
			}
			if resident != r.resident {
				bad = append(bad, fmt.Sprintf(
					"region %s/%s: resident counter %d, recount %d",
					as.label, r.Name, r.resident, resident))
			}
			if swapped != r.swapped {
				bad = append(bad, fmt.Sprintf(
					"region %s/%s: swapped counter %d, recount %d",
					as.label, r.Name, r.swapped, swapped))
			}
			physSum += resident
			swapSum += swapped
			if r.Kind == Anon {
				uss[k] += resident
			} else {
				refs, holders := fileRefs[r.file], fileHolders[r.file]
				if refs == nil {
					refs = make([]int32, r.file.Pages)
					holders = make([]int32, r.file.Pages)
					fileRefs[r.file], fileHolders[r.file] = refs, holders
				}
				for i := int64(0); i < int64(len(r.pb)); i++ {
					if r.pb[i]&pageStateMask == pageResident {
						refs[r.foff+i]++
						holders[r.foff+i] ^= int32(as.id)
					}
				}
			}
		}
	}

	if physSum != m.physPages {
		bad = append(bad, fmt.Sprintf(
			"machine: physPages %d, recount across spaces %d", m.physPages, physSum))
	}
	if swapSum != m.swapPages {
		bad = append(bad, fmt.Sprintf(
			"machine: swapPages %d, recount across spaces %d", m.swapPages, swapSum))
	}
	if m.swapLimit > 0 && m.swapPages > m.swapLimit {
		bad = append(bad, fmt.Sprintf(
			"machine: swap occupancy %d pages exceeds device limit %d", m.swapPages, m.swapLimit))
	}

	// File refcounts must equal the number of mappings holding each
	// page resident — they drive PSS/USS attribution and the §4.6
	// unmap-safety check — and each page's holder XOR must match the
	// recounted holders, or a 2→1 transition credits the wrong space.
	// The count of shared pages must match too, or the unmap-safety
	// check answers without looking.
	for _, name := range m.Files() {
		f := m.files[name]
		refs, holders := fileRefs[f], fileHolders[f] // nil when no mapping has any page resident
		var shared int64
		for i := int64(0); i < f.Pages; i++ {
			var want, wantHolders int32
			if refs != nil {
				want, wantHolders = refs[i], holders[i]
			}
			if want > 1 {
				shared++
			}
			if f.refs[i] != want {
				bad = append(bad, fmt.Sprintf(
					"file %s page %d: refcount %d, recount %d", name, i, f.refs[i], want))
			}
			if f.holders[i] != wantHolders {
				bad = append(bad, fmt.Sprintf(
					"file %s page %d: holder XOR %d, recount %d", name, i, f.holders[i], wantHolders))
			}
		}
		if f.shared != shared {
			bad = append(bad, fmt.Sprintf(
				"file %s: %d shared pages counted, recount %d", name, f.shared, shared))
		}
	}

	// Each space's USS counter must equal its private pages recounted
	// from the page states and the recounted refcounts: resident anon
	// pages plus resident file pages no other mapping holds.
	for k, as := range spaces {
		for _, r := range as.regions {
			if r.Kind != FileBacked {
				continue
			}
			refs := fileRefs[r.file]
			for i, b := range r.pb {
				if b&pageStateMask == pageResident && refs[r.foff+int64(i)] == 1 {
					uss[k]++
				}
			}
		}
		if uss[k] != as.ussPages {
			bad = append(bad, fmt.Sprintf(
				"space %s: USS counter %d pages, recount %d", as.label, as.ussPages, uss[k]))
		}
	}

	// Each tally's sum and size must equal its members' recounted USS
	// and number: its members are live spaces (Destroy takes a space
	// out), so the spaces pointing at a tally are all of them.
	type recount struct{ pages, n int64 }
	tallies := make(map[*Tally]*recount)
	var order []*Tally
	for k, as := range spaces {
		if as.tally == nil {
			continue
		}
		rc := tallies[as.tally]
		if rc == nil {
			rc = &recount{}
			tallies[as.tally] = rc
			order = append(order, as.tally)
		}
		rc.pages += uss[k]
		rc.n++
	}
	for _, t := range order {
		if rc := tallies[t]; rc.pages != t.pages || rc.n != int64(t.n) {
			bad = append(bad, fmt.Sprintf(
				"tally: %d pages over %d spaces, recount %d over %d", t.pages, t.n, rc.pages, rc.n))
		}
	}

	sort.Strings(bad)
	return bad
}
