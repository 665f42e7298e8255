// Package vm models the machine-independent physical memory layer: physical
// pages (the paper's vm_page), a frame allocator, and page wiring.
//
// A Page may be "backed" by real storage, in which case copies through the
// simulated MMU move actual bytes and data-integrity tests can detect
// TLB-coherence bugs as corruption, or "unbacked", in which case only costs
// are charged — useful for benchmark configurations whose footprints
// (a 512 MB memory disk, a 1.1 GB web corpus) would be wasteful to allocate
// for real.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Page geometry.  Both evaluation architectures use 4 KB base pages.
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the size of a physical page in bytes.
	PageSize = 1 << PageShift
)

// PAddr is a physical byte address.
type PAddr uint64

// Page is a physical page — the simulator's vm_page.  Fields mutated after
// allocation (wire count, and the frame number under migration) use atomics
// because subsystems run on multiple goroutines.
type Page struct {
	// frame is the physical frame number currently backing this logical
	// page.  It is mutable: defragmentation by migration (SwapFrames) moves
	// a resident page to a different frame while every holder of the *Page
	// keeps its handle, so readers racing a migration need the atomic.
	frame atomic.Uint64
	data  []byte // nil when the owning PhysMem is unbacked
	wire  atomic.Int32

	// id is the page's stable identity: the frame number it was created
	// on.  Unlike frame it never changes — migration moves a page between
	// frames but not between identities — so it is the key for any state
	// that must follow the logical page across migrations (extent-reuse
	// tracking, the tier keeper's tables).  On a pool that never migrates
	// it equals Frame().
	id uint64
}

// ExtentID hashes a page sequence by stable page identity (FNV-1a over
// Page.id).  Where the run pool keys parked windows on the frames an
// extent currently occupies — the right key for caches of installed
// translations — ExtentID follows the logical extent across migration:
// the same pages hash the same before and after their frames move.  On a
// pool that never migrates, page identity and frame agree exactly.
func ExtentID(pages []*Page) uint64 {
	h := uint64(1469598103934665603)
	for _, pg := range pages {
		h ^= pg.id
		h *= 1099511628211
	}
	return h
}

// Frame returns the physical frame number.
func (p *Page) Frame() uint64 { return p.frame.Load() }

// PA returns the physical address of the first byte of the page.
func (p *Page) PA() PAddr { return PAddr(p.frame.Load() << PageShift) }

// Data returns the page's backing storage, or nil for unbacked memory.
// Callers must bounds-check their own offsets; the slice is always exactly
// PageSize long when non-nil.
func (p *Page) Data() []byte { return p.data }

// Wire increments the page's wire count, preventing replacement or
// page-out while a subsystem holds a loan on it (pipe direct writes,
// zero-copy sends).
func (p *Page) Wire() { p.wire.Add(1) }

// Unwire decrements the wire count.  It panics on underflow, which always
// indicates a subsystem bug.
func (p *Page) Unwire() {
	if n := p.wire.Add(-1); n < 0 {
		panic(fmt.Sprintf("vm: unwire of unwired page frame %d", p.Frame()))
	}
}

// Wired reports whether the page is currently wired.
func (p *Page) Wired() bool { return p.wire.Load() > 0 }

// String implements fmt.Stringer for diagnostics.
func (p *Page) String() string {
	return fmt.Sprintf("page{frame=%d wire=%d}", p.Frame(), p.wire.Load())
}

// ErrNoMemory is returned when the physical memory pool is exhausted.
var ErrNoMemory = errors.New("vm: out of physical memory")

// PhysMem is the physical memory of one simulated machine: a fixed number
// of frames managed either by the seed's LIFO free stack (NewPhysMem) or
// by the buddy allocator (NewBuddyPhysMem; see buddy.go).  The two modes
// share the Alloc/AllocN/Free surface; only the buddy mode can satisfy
// AllocContig and recover contiguity after churn.  The LIFO mode is kept
// because the figure-reproduction kernels depend on its exact allocation
// order for bit-identical experiment replay.
type PhysMem struct {
	mu sync.Mutex
	// pages is the frame registry: pages[f-1] is the Page currently backing
	// frame f.  Slots are atomic pointers because PageByFrame is the MMU
	// model's lock-free hot path and migration (SwapFrames) rebinds two
	// slots while the machine runs.
	pages  []atomic.Pointer[Page]
	free   []*Page // LIFO mode free stack
	backed bool

	// Buddy-mode state: per-socket order-indexed free lists and
	// fragmentation counters, all guarded by mu (see buddy.go).  On the
	// default one-socket partition orders[0] is exactly the flat buddy
	// free list.
	buddy      bool
	orders     [][]orderHeap // [socket][order]
	freePages  int
	freeBySock []int
	splits     uint64
	coalesces  uint64

	// Superpage reservation watermarks (buddy mode; see buddy.go).  While a
	// socket's stock of intact order>=reservOrder blocks is at or below
	// reservLow, single-page allocation steers to sub-reservation blocks
	// (reservSteers) and splits a protected block only when no smaller
	// block exists anywhere (reservSpills).  reservOrder==0 disables.
	reservOrder  int
	reservLow    int
	reservSteers uint64
	reservSpills uint64

	// NUMA frame homing: frames are homed on sockets by address range
	// (framesPer frames per socket, the last socket taking the
	// remainder).  Buddy pools fix the partition at construction
	// (NewBuddyPhysMemNUMA); LIFO pools may carry a homing-only
	// partition for SocketOfFrame (HomeSockets).
	sockets   int
	framesPer int
	numaLocal uint64
	numaSpill uint64

	// Tiered physical memory (tier.go): each socket's frame range is
	// split into a fast prefix of fastPer frames and a slow remainder.
	// fastPer == 0 means a single uniform tier.  freeFast tracks the free
	// fast-tier frames per socket on buddy pools; LIFO pools compute tier
	// residency by scanning their free stack.
	fastPer  int
	freeFast []int

	contigAllocs uint64
	contigFails  uint64

	allocs atomic.Uint64
	frees  atomic.Uint64
}

// NewPhysMem creates a machine with frames physical pages on the LIFO
// free stack.  When backed is true every page gets PageSize bytes of real
// storage (allocated lazily on first allocation of the page, so large
// mostly-unused pools stay cheap).
func NewPhysMem(frames int, backed bool) *PhysMem {
	if frames <= 0 {
		panic("vm: NewPhysMem with no frames")
	}
	pm := &PhysMem{
		pages:     make([]atomic.Pointer[Page], frames),
		free:      make([]*Page, 0, frames),
		backed:    backed,
		sockets:   1,
		framesPer: frames,
	}
	// Frame numbers start at 1 so that frame 0 / physical address 0 can
	// serve as a sentinel ("no frame") throughout the MMU model.
	for i := frames - 1; i >= 0; i-- {
		p := &Page{id: uint64(i + 1)}
		p.frame.Store(uint64(i + 1))
		pm.pages[i].Store(p)
		pm.free = append(pm.free, p)
	}
	return pm
}

// Frames returns the total number of frames in the pool.
func (pm *PhysMem) Frames() int { return len(pm.pages) }

// FreeFrames returns the number of frames currently free.
func (pm *PhysMem) FreeFrames() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.buddy {
		return pm.freePages
	}
	return len(pm.free)
}

// Alloc allocates one physical page.
func (pm *PhysMem) Alloc() (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.buddy {
		return pm.buddyAllocOneLocked(-1)
	}
	return pm.allocLocked()
}

// AllocOn allocates one physical page, preferring frames homed on the
// given socket and spilling to the other sockets' free lists only when
// the preferred one is drained (counted in NUMASpillPages).  On a LIFO or
// one-socket pool it is exactly Alloc.
func (pm *PhysMem) AllocOn(socket int) (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.buddy {
		return pm.buddyAllocOneLocked(socket)
	}
	return pm.allocLocked()
}

func (pm *PhysMem) allocLocked() (*Page, error) {
	if len(pm.free) == 0 {
		return nil, ErrNoMemory
	}
	p := pm.free[len(pm.free)-1]
	pm.free = pm.free[:len(pm.free)-1]
	if pm.backed && p.data == nil {
		p.data = make([]byte, PageSize)
	}
	pm.allocs.Add(1)
	return p, nil
}

// AllocN allocates n pages, returning them in allocation order.  On a
// buddy pool the allocation is promotion-aware: when the sub-covering
// stock cannot serve the request, the pages come from one covering block
// as a physically contiguous ascending extent (so a consumer that maps
// them as an aligned run can superpage-promote); otherwise frames are
// gathered smallest-block-first, consuming fragments while the pool's
// superpage-capable blocks survive for AllocContig — from a fresh boot
// cover the gather is still one ascending contiguous extent.  On failure
// no pages are retained.
func (pm *PhysMem) AllocN(n int) ([]*Page, error) {
	return pm.AllocNOn(-1, n)
}

// AllocNOn is AllocN preferring frames homed on the given socket: the
// preferred socket's free lists are gathered first (address-ordered, the
// same promotion-aware gather), and only a shortfall spills to the other
// sockets ascending.  Pages served from the preferred socket count in
// NUMALocalPages, spilled pages in NUMASpillPages.  socket < 0 (or a LIFO
// or one-socket pool) is exactly AllocN.
func (pm *PhysMem) AllocNOn(socket, n int) ([]*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.buddy {
		return pm.buddyAllocNLocked(socket, n)
	}
	if len(pm.free) < n {
		return nil, ErrNoMemory
	}
	out := make([]*Page, n)
	for i := range out {
		p, err := pm.allocLocked()
		if err != nil {
			// Unreachable given the length check, but roll back anyway.
			for j := 0; j < i; j++ {
				pm.freeUnzeroedLocked(out[j])
			}
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// Free returns a page to the free pool.  Freeing a wired page panics: a
// wired page is on loan to some subsystem and releasing its frame would be
// a use-after-free.
//
// Backed page data is zeroed BEFORE the pool mutex is taken: until the
// page reaches a free list the freeing thread owns it exclusively, so the
// PageSize memset needs no serialization — bulk frees (a released memory
// disk, a drained user buffer) no longer serialize the whole machine
// behind one lock holder clearing pages.  Unbacked pools skip the loop
// entirely (there is nothing to clear).
func (pm *PhysMem) Free(p *Page) {
	if p.Wired() {
		panic(fmt.Sprintf("vm: freeing wired %v", p))
	}
	if p.data != nil {
		clear(p.data)
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.freeUnzeroedLocked(p)
}

// freeUnzeroedLocked links an already-cleared (or never-touched) page
// back into the free structures.  Caller holds pm.mu.
func (pm *PhysMem) freeUnzeroedLocked(p *Page) {
	pm.frees.Add(1)
	if pm.buddy {
		pm.insertBlockLocked(p.Frame(), 0)
		return
	}
	pm.free = append(pm.free, p)
}

// PageByFrame returns the page with the given frame number, or nil when the
// frame is out of range (including the 0 sentinel).  It is how the MMU model
// turns a (possibly stale) TLB translation back into storage.
func (pm *PhysMem) PageByFrame(frame uint64) *Page {
	if frame == 0 || frame > uint64(len(pm.pages)) {
		return nil
	}
	return pm.pages[frame-1].Load()
}

// Stats returns cumulative allocation and free counts.
func (pm *PhysMem) Stats() (allocs, frees uint64) {
	return pm.allocs.Load(), pm.frees.Load()
}
