// Package kva implements the kernel virtual-address arena: the
// general-purpose allocator of temporary kernel virtual addresses that the
// original kernel invokes for every ephemeral mapping, and from which the
// i386 sf_buf implementation reserves its mapping-cache region once at
// boot.
//
// The arena is a first-fit free list with address-ordered coalescing —
// the classic resource-map allocator (cf. the paper's discussion of Vmem).
// It deals in whole pages.
package kva

import (
	"errors"
	"fmt"
	"sync"

	"sfbuf/internal/vm"
)

// ErrExhausted is returned when no free range can satisfy an allocation.
var ErrExhausted = errors.New("kva: virtual address space exhausted")

// span is one free range [start, start+pages*PageSize).
type span struct {
	start uint64
	pages int
}

// Arena allocates page-granular ranges from [base, base+size).
type Arena struct {
	base uint64
	size uint64

	mu        sync.Mutex
	free      []span         // sorted by start address
	allocated map[uint64]int // start -> pages, for double-free detection
	inUse     int            // pages currently allocated
	peak      int            // high-water mark
	allocs    uint64         // cumulative allocations
	splits    uint64         // allocations that split a free span in two
	coalesces uint64         // frees merged with a neighboring span

	// regions partitions the arena's VA space into equal page-count
	// chunks, one per socket on a NUMA machine (SetRegions).  Region-
	// preferring allocation (AllocWindowOn) confines the first-fit scan to
	// the preferred region's addresses before spilling; with one region
	// (the default) every allocation sees the whole arena, exactly the
	// flat allocator.
	regions int
}

// NewArena creates an arena over [base, base+size).  Both must be
// page-aligned.
func NewArena(base, size uint64) *Arena {
	if base%vm.PageSize != 0 || size%vm.PageSize != 0 || size == 0 {
		panic(fmt.Sprintf("kva: misaligned arena base=%#x size=%#x", base, size))
	}
	return &Arena{
		base:      base,
		size:      size,
		free:      []span{{start: base, pages: int(size / vm.PageSize)}},
		allocated: make(map[uint64]int),
		regions:   1,
	}
}

// SetRegions partitions the arena into n equal page-count regions, one
// per socket, so AllocWindowOn can home window reservations.  The free
// list itself stays one address-ordered resource map — only the
// preference boundaries change, so a partitioned arena with region-
// agnostic callers behaves exactly like a flat one.  Call it at boot; n
// is clamped to [1, total pages].
func (a *Arena) SetRegions(n int) {
	total := int(a.size / vm.PageSize)
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	a.mu.Lock()
	a.regions = n
	a.mu.Unlock()
}

// Regions returns the partition width (1 on a flat arena).
func (a *Arena) Regions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.regions
}

// RegionOf returns the region whose address range contains va — how an
// address-routed free (or a per-socket stats pass) attributes a window
// back to its home socket.  Out-of-arena addresses clamp to the nearest
// region.
func (a *Arena) RegionOf(va uint64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.regionOfLocked(va)
}

func (a *Arena) regionOfLocked(va uint64) int {
	if a.regions <= 1 || va <= a.base {
		return 0
	}
	per := a.regionPagesLocked()
	r := int((va - a.base) / vm.PageSize / uint64(per))
	if r >= a.regions {
		r = a.regions - 1
	}
	return r
}

// regionPagesLocked returns pages per region (the last region absorbs the
// remainder).  Caller holds a.mu.
func (a *Arena) regionPagesLocked() int {
	return int(a.size/vm.PageSize) / a.regions
}

// regionBoundsLocked returns region r's address range [lo, hi).  Caller
// holds a.mu.
func (a *Arena) regionBoundsLocked(r int) (lo, hi uint64) {
	per := uint64(a.regionPagesLocked()) * vm.PageSize
	lo = a.base + uint64(r)*per
	hi = lo + per
	if r == a.regions-1 {
		hi = a.base + a.size
	}
	return lo, hi
}

// Alloc carves out pages contiguous virtual pages, returning the base
// address of the range.
func (a *Arena) Alloc(pages int) (uint64, error) {
	return a.AllocAligned(pages, 1)
}

// AllocAligned carves out pages contiguous virtual pages whose base
// address is aligned to alignPages pages (first fit).  Alignment is what
// lets a run window line up with a simulated superpage boundary so the
// promotion path can collapse it to one TLB entry.  alignPages must be a
// power of two; 1 means no constraint.
func (a *Arena) AllocAligned(pages, alignPages int) (uint64, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("kva: invalid allocation of %d pages", pages)
	}
	if alignPages <= 0 || alignPages&(alignPages-1) != 0 {
		return 0, fmt.Errorf("kva: alignment %d pages is not a power of two", alignPages)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if va, ok := a.allocAlignedLocked(pages, alignPages, a.base, a.base+a.size); ok {
		return va, nil
	}
	return 0, ErrExhausted
}

// allocAlignedLocked is the first-fit carve restricted to [lo, hi): only
// placements whose whole range lies inside the bounds are accepted.  A
// free span straddling a bound can still serve the portion inside it.
// With the full arena as bounds this is exactly the flat first fit.
// Caller holds a.mu.
func (a *Arena) allocAlignedLocked(pages, alignPages int, lo, hi uint64) (uint64, bool) {
	alignBytes := uint64(alignPages) * vm.PageSize
	for i := range a.free {
		s := &a.free[i]
		from := s.start
		if from < lo {
			from = lo
		}
		va := (from + alignBytes - 1) &^ (alignBytes - 1)
		if va < s.start || va+uint64(pages)*vm.PageSize > hi {
			continue
		}
		lead := int((va - s.start) / vm.PageSize)
		if s.pages < lead+pages {
			continue
		}
		switch trail := s.pages - lead - pages; {
		case lead == 0 && trail == 0:
			a.free = append(a.free[:i], a.free[i+1:]...)
		case lead == 0:
			s.start = va + uint64(pages)*vm.PageSize
			s.pages = trail
		case trail == 0:
			s.pages = lead
		default:
			// The allocation lands mid-span: the span splits in two.
			s.pages = lead
			a.free = append(a.free, span{})
			copy(a.free[i+2:], a.free[i+1:])
			a.free[i+1] = span{start: va + uint64(pages)*vm.PageSize, pages: trail}
			a.splits++
		}
		a.allocated[va] = pages
		a.inUse += pages
		if a.inUse > a.peak {
			a.peak = a.inUse
		}
		a.allocs++
		return va, true
	}
	return 0, false
}

// AllocWindow reserves a VA window of pages usable pages followed by
// guardPages of reserved-but-never-mapped address space, with the usable
// base aligned to alignPages pages.  Nothing is ever mapped at the guard
// pages, so a copy or translation running off the end of the window
// faults (pmap.ErrFault) instead of silently landing in a neighboring
// mapping.  The returned address frees the whole reservation, guard
// included, through Free.
func (a *Arena) AllocWindow(pages, guardPages, alignPages int) (uint64, error) {
	if guardPages < 0 {
		return 0, fmt.Errorf("kva: invalid guard of %d pages", guardPages)
	}
	return a.AllocAligned(pages+guardPages, alignPages)
}

// AllocWindowOn is AllocWindow homed on a region: the first-fit scan is
// confined to the region's address range first, spilling to the other
// regions in ascending order only when it cannot fit there.  A freed
// window routes back to its home region automatically, because Free is
// address-ordered.  region < 0 (or a one-region arena) is exactly
// AllocWindow.
func (a *Arena) AllocWindowOn(region, pages, guardPages, alignPages int) (uint64, error) {
	if guardPages < 0 {
		return 0, fmt.Errorf("kva: invalid guard of %d pages", guardPages)
	}
	if pages <= 0 {
		return 0, fmt.Errorf("kva: invalid allocation of %d pages", pages)
	}
	if alignPages <= 0 || alignPages&(alignPages-1) != 0 {
		return 0, fmt.Errorf("kva: alignment %d pages is not a power of two", alignPages)
	}
	total := pages + guardPages
	a.mu.Lock()
	defer a.mu.Unlock()
	if region < 0 || a.regions <= 1 {
		if va, ok := a.allocAlignedLocked(total, alignPages, a.base, a.base+a.size); ok {
			return va, nil
		}
		return 0, ErrExhausted
	}
	if region >= a.regions {
		region = a.regions - 1
	}
	lo, hi := a.regionBoundsLocked(region)
	if va, ok := a.allocAlignedLocked(total, alignPages, lo, hi); ok {
		return va, nil
	}
	for r := 0; r < a.regions; r++ {
		if r == region {
			continue
		}
		lo, hi := a.regionBoundsLocked(r)
		if va, ok := a.allocAlignedLocked(total, alignPages, lo, hi); ok {
			return va, nil
		}
	}
	// Last resort: a request wider than a region (or one only satisfiable
	// straddling a boundary) gets the flat whole-arena scan — homing is a
	// preference, never a capacity limit.
	if va, ok := a.allocAlignedLocked(total, alignPages, a.base, a.base+a.size); ok {
		return va, nil
	}
	return 0, ErrExhausted
}

// Free returns the range starting at va to the arena.  The range must be
// exactly one previously allocated with Alloc; partial frees and double
// frees panic, since in a kernel either is memory corruption.
func (a *Arena) Free(va uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pages, ok := a.allocated[va]
	if !ok {
		panic(fmt.Sprintf("kva: free of unallocated va %#x", va))
	}
	delete(a.allocated, va)
	a.inUse -= pages

	// Insert in address order, then coalesce with neighbors.
	i := 0
	for i < len(a.free) && a.free[i].start < va {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{start: va, pages: pages}

	// Coalesce with successor first so the index stays valid.
	if i+1 < len(a.free) && a.free[i].end() == a.free[i+1].start {
		a.free[i].pages += a.free[i+1].pages
		a.free = append(a.free[:i+1], a.free[i+2:]...)
		a.coalesces++
	}
	if i > 0 && a.free[i-1].end() == a.free[i].start {
		a.free[i-1].pages += a.free[i].pages
		a.free = append(a.free[:i], a.free[i+1:]...)
		a.coalesces++
	}
}

func (s span) end() uint64 { return s.start + uint64(s.pages)*vm.PageSize }

// InUsePages returns the number of pages currently allocated.
func (a *Arena) InUsePages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// PeakPages returns the allocation high-water mark in pages.
func (a *Arena) PeakPages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Allocs returns the cumulative allocation count.
func (a *Arena) Allocs() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs
}

// FreeRanges returns the number of discrete free spans — a fragmentation
// measure used by tests to verify coalescing.
func (a *Arena) FreeRanges() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// FreePages returns the total free page count.
func (a *Arena) FreePages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.free {
		n += s.pages
	}
	return n
}

// Splits returns how many allocations landed mid-span, splitting one free
// range into two — the fragmentation-producing event.
func (a *Arena) Splits() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.splits
}

// Coalesces returns how many frees merged with a neighboring free range —
// the fragmentation-repairing event.
func (a *Arena) Coalesces() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coalesces
}

// LargestFreeRun returns the longest free span in pages: the biggest
// contiguous window reservation the arena could currently satisfy.
func (a *Arena) LargestFreeRun() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	max := 0
	for _, s := range a.free {
		if s.pages > max {
			max = s.pages
		}
	}
	return max
}
