// Package osmem simulates the operating-system memory substrate the
// paper measures against: per-process virtual address spaces backed by
// 4 KiB physical pages, mmap/munmap/mprotect/madvise semantics,
// file-backed shared mappings (shared libraries), a swap device, and
// the USS/RSS/PSS accounting that the paper reads out of
// /proc/<pid>/smaps and pmap.
//
// The paper defines an instance's memory consumption as its USS
// (private_dirty + private_clean), explicitly excluding library pages
// shared with other instances. Frozen garbage is, in OS terms,
// resident private pages whose contents are dead objects — so a
// page-accurate model is what makes the characterization reproducible.
package osmem

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// PageSize is the size of one page in bytes (4 KiB, matching Linux).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(bytes int64) int64 {
	if bytes < 0 {
		panic("osmem: negative size")
	}
	return (bytes + PageSize - 1) >> PageShift
}

// Each page's state and dirty flag are packed into one byte of the
// owning region's page array: bits 0-1 say where the contents live,
// bit 2 whether they were modified since fault-in. Packing them makes
// a homogeneous run of pages a homogeneous run of bytes, which is
// what the run-length fast paths in addrspace.go scan for.
const (
	pageNotPresent byte = 0 // never touched, or released (always clean)
	pageResident   byte = 1 // backed by a physical frame
	pageSwapped    byte = 2 // contents on the swap device
	pageStateMask  byte = 0x3
	pageDirty      byte = 0x4 // OR'd onto the state
)

// Fault costs, in microseconds per page, mirror a contemporary
// NVMe-backed server. They are charged to whoever touches the page and
// surface in the paper's §5.6 post-reclamation overhead experiment.
const (
	// minorFaultCost is a zero-fill or page-cache-hit fault (~1µs).
	minorFaultCost int64 = 1
	// majorFaultCost reads a page back from the swap device or from a
	// library file on disk (~45µs).
	majorFaultCost int64 = 45
)

// PageCounters accumulates machine-wide paging activity over the
// machine's lifetime. Unlike PhysPages/SwapPages (which are levels),
// these are monotone flows, the quantities an observability sampler
// wants: commits count every fault-in (zero-fill, page-cache hit,
// disk read, swap-in), releases every resident frame freed (DONTNEED,
// clean drops, teardown), and the swap counters each page crossing
// the swap device in either direction.
type PageCounters struct {
	Commits  int64
	Releases int64
	SwapIns  int64
	SwapOuts int64
}

// Machine is the physical memory of one simulated host. All address
// spaces and file objects hang off a machine; physical usage and swap
// occupancy are tracked machine-wide.
type Machine struct {
	files map[string]*FileObject

	physPages int64 // resident pages across all address spaces
	peakPhys  int64 // high-water mark of physPages over the lifetime
	swapPages int64 // pages currently on the swap device
	swapLimit int64 // swap device capacity in pages; 0 = unlimited
	counters  PageCounters

	nextASID int
	spaces   map[int]*AddressSpace
}

// NewMachine creates a machine with no address spaces or files.
func NewMachine() *Machine {
	return &Machine{
		files:  make(map[string]*FileObject),
		spaces: make(map[int]*AddressSpace),
	}
}

// pbPools recycle page-state arrays across regions, machines and
// worker goroutines, one pool per power-of-two capacity: a fleet sweep
// builds hundreds of machines with a few dozen cold boots each, too
// few for a per-machine pool to warm up. Every array in a pool is zero
// over its whole capacity, so a region adopting one reads not-present
// and clean pages without clearing it, and which array a region draws
// changes no output.
var pbPools [64]sync.Pool

// pbClass returns the pool index for an array of n > 0 pages: log2 of
// the power of two at or above n.
func pbClass(n int64) int {
	return bits.Len64(uint64(n - 1))
}

// getPB returns a zeroed page-state array of length n > 0 whose
// capacity is the power of two at or above n, in the box the pool
// keeps it in. Only a pool miss allocates.
func getPB(n int64) *[]byte {
	c := pbClass(n)
	b, ok := pbPools[c].Get().(*[]byte)
	if !ok {
		b = new([]byte)
		*b = make([]byte, 0, 1<<c)
	}
	*b = (*b)[:n]
	return b
}

// putPB hands the box b back to its pool, with its array, which must be
// zero over its whole capacity. Arrays are only ever written below
// their length, so zeroing them to their length is enough.
func putPB(b *[]byte) {
	*b = (*b)[:0]
	pbPools[pbClass(int64(cap(*b)))].Put(b)
}

// dropPB detaches a dead region's page-state array, zeroed by the
// release that tore the region down, and recycles it.
func (r *Region) dropPB() {
	if r.pb != nil {
		putPB(r.pbBox)
		r.pb, r.pbBox = nil, nil
	}
}

// PhysPages returns the number of resident physical pages machine-wide.
func (m *Machine) PhysPages() int64 { return m.physPages }

// PhysBytes returns resident physical memory machine-wide in bytes.
func (m *Machine) PhysBytes() int64 { return m.physPages * PageSize }

// PeakPhysBytes returns the machine's lifetime high-water mark of
// resident physical memory in bytes — the capacity a real host of
// this size would have needed. Capacity planning (the cluster sweeps)
// reads this instead of sampling PhysBytes, so the peak is exact
// rather than quantized to a report cadence.
func (m *Machine) PeakPhysBytes() int64 { return m.peakPhys * PageSize }

// SwapPages returns the number of pages currently swapped out.
func (m *Machine) SwapPages() int64 { return m.swapPages }

// SetSwapLimit bounds the swap device to the given number of pages
// (0 = unlimited). Shrinking the limit below the current occupancy is
// allowed — already-swapped pages stay where they are, but no further
// page can be swapped out until occupancy drops below the limit. This
// is how the chaos layer models swap-device exhaustion.
func (m *Machine) SetSwapLimit(pages int64) {
	if pages < 0 {
		panic("osmem: negative swap limit")
	}
	m.swapLimit = pages
}

// SwapLimit returns the swap device capacity in pages (0 = unlimited).
func (m *Machine) SwapLimit() int64 { return m.swapLimit }

// SwapFull reports whether the swap device has no free slots.
func (m *Machine) SwapFull() bool {
	return m.swapLimit > 0 && m.swapPages >= m.swapLimit
}

// PageCounters returns the machine's cumulative paging activity.
func (m *Machine) PageCounters() PageCounters { return m.counters }

// FileObject represents an on-disk file that can be memory-mapped,
// e.g. libjvm.so. Residency of its pages is shared machine-wide: a
// page read in by one mapping is a cache hit for every other mapping
// of the same file (this is what makes library memory amortize across
// instances on OpenWhisk, and what Lambda's isolated images forbid).
type FileObject struct {
	Name  string
	Pages int64
	// refs[i] = number of address spaces with page i resident.
	refs []int32
	// holders[i] is the XOR of the IDs of the address spaces holding
	// page i resident, one term per holding mapping. While refs[i] is
	// 1 it is the sole holder's ID, which is how Region.unref finds
	// the space a 2→1 transition makes the page private to.
	holders []int32
	// shared counts the pages with refs[i] > 1, so a file no two
	// mappings share answers Region.SharesResidentPages without a walk.
	shared int64
	// version increments on every refcount change; regions use it to
	// invalidate cached accounting for shared mappings.
	version uint64
}

// File returns (creating if necessary) the machine's file object for
// name, sized to at least bytes.
func (m *Machine) File(name string, bytes int64) *FileObject {
	f := m.files[name]
	pages := PagesFor(bytes)
	if f == nil {
		f = &FileObject{Name: name, Pages: pages,
			refs: make([]int32, pages), holders: make([]int32, pages)}
		m.files[name] = f
		return f
	}
	if pages > f.Pages {
		refs := make([]int32, pages)
		copy(refs, f.refs)
		holders := make([]int32, pages)
		copy(holders, f.holders)
		f.refs, f.holders = refs, holders
		f.Pages = pages
	}
	return f
}

// Files returns the names of all registered file objects, sorted.
func (m *Machine) Files() []string {
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SpaceCount returns the number of live address spaces.
func (m *Machine) SpaceCount() int { return len(m.spaces) }

// AppendAddressSpaces appends the live address spaces to dst, sorted by
// ID, and returns the extended slice. The spaces hang off a map, so
// this ordering is what lets machine-wide scans (accounting audits,
// invariant sweeps) stay deterministic.
func (m *Machine) AppendAddressSpaces(dst []*AddressSpace) []*AddressSpace {
	start := len(dst)
	for _, as := range m.spaces {
		dst = append(dst, as)
	}
	slices.SortFunc(dst[start:], func(a, b *AddressSpace) int { return cmp.Compare(a.id, b.id) })
	return dst
}

// holder returns the live address space with the given ID, reusing
// last when it already is that space: a run of pages changing hands
// usually has one other holder, so ref/unref pay one map lookup per
// run rather than per page.
func (m *Machine) holder(last *AddressSpace, id int32) *AddressSpace {
	if last != nil && last.id == int(id) {
		return last
	}
	return m.spaces[int(id)]
}

// NewAddressSpace creates an empty address space (one per simulated
// process/container).
func (m *Machine) NewAddressSpace(label string) *AddressSpace {
	if m.nextASID == math.MaxInt32 {
		panic("osmem: address space IDs exhausted") // FileObject.holders stores them as int32
	}
	m.nextASID++
	as := &AddressSpace{
		id:      m.nextASID,
		label:   label,
		machine: m,
		nextVA:  0x1000_0000, // arbitrary non-zero base
	}
	m.spaces[as.id] = as
	return as
}

// Destroy tears down an address space, releasing all its physical
// pages and swap slots, and takes it out of its tally. Using the
// address space afterwards panics.
func (m *Machine) Destroy(as *AddressSpace) {
	if as.machine != m {
		panic("osmem: Destroy on foreign address space")
	}
	for _, r := range as.regions {
		as.releaseRange(r, 0, r.pages)
		r.dropPB()
	}
	as.regions = nil
	if as.tally != nil {
		as.tally.Leave(as) // its USS is 0 now: it only stops counting
	}
	as.dead = true
	delete(m.spaces, as.id)
}

func (m *Machine) String() string {
	return fmt.Sprintf("machine{phys=%dMB swap=%dMB spaces=%d files=%d}",
		m.PhysBytes()>>20, m.swapPages*PageSize>>20, len(m.spaces), len(m.files))
}
