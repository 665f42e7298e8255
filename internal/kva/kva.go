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
	}
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
	alignBytes := uint64(alignPages) * vm.PageSize
	for i := range a.free {
		s := &a.free[i]
		va := (s.start + alignBytes - 1) &^ (alignBytes - 1)
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
		return va, nil
	}
	return 0, ErrExhausted
}

// AllocWindow reserves a VA window of pages usable pages followed by
// guardPages of reserved-but-never-mapped address space, with the usable
// base aligned to alignPages pages.  Nothing is ever mapped at the guard
// pages, so a copy or translation running off the end of the window
// faults (pmap.ErrFault) instead of silently landing in a neighboring
// mapping.  The returned address frees the whole reservation, guard
// included, through Free.
func (a *Arena) AllocWindow(pages, guardPages, alignPages int) (uint64, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("kva: invalid window of %d pages", pages)
	}
	if guardPages < 0 {
		return 0, fmt.Errorf("kva: invalid guard of %d pages", guardPages)
	}
	return a.AllocAligned(pages+guardPages, alignPages)
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
