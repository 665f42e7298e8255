// Package vm models the machine-independent physical memory layer: physical
// pages (the paper's vm_page), a frame allocator, and page wiring.
//
// A Page of a backed pool moves real bytes, so data-integrity tests can
// detect TLB-coherence bugs as corruption.  Its storage is lazy and
// shareable, in one of three states (store.go): no storage, which reads as
// zeros; a shared, immutable block interned by content in its PhysMem; or
// a private buffer the page owns and is written in place.  A page pays
// for memory only once its bytes differ from zeros and from every interned
// block, so a mostly unwritten memory disk or a corpus of repeated blocks
// costs a few blocks, not its size.  A Page of an unbacked pool only
// charges costs: its stores move no bytes and it always reads as zeros.
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

// Page is a physical page — the simulator's vm_page.  Its frame is fixed
// for life; the wire count and storage state are mutated after allocation
// and use atomics because subsystems run on multiple goroutines.
type Page struct {
	// frame is the physical frame number backing this page, set once at
	// construction.
	frame uint64
	// data is the storage state (store.go): nil for no storage, else a
	// shared interned block or the page's own buffer.  Every change of
	// state a writer can race is a CAS on this one word.
	data atomic.Pointer[byte]
	wire atomic.Int32
	// backed is fixed at construction: whether the page's pool stores
	// bytes at all.
	backed bool
}

// ExtentID hashes a page sequence by frame (FNV-1a over Frame()): the key
// for state that follows a logical extent, such as extent-reuse tracking.
func ExtentID(pages []*Page) uint64 {
	h := uint64(1469598103934665603)
	for _, pg := range pages {
		h ^= pg.frame
		h *= 1099511628211
	}
	return h
}

// Frame returns the physical frame number.
func (p *Page) Frame() uint64 { return p.frame }

// PA returns the physical address of the first byte of the page.
func (p *Page) PA() PAddr { return PAddr(p.frame << PageShift) }

// Data returns the page's private, writable buffer, or nil for unbacked
// memory.  A page with no storage or a shared block is owned first: it
// gets a buffer holding what it read as.  Callers must bounds-check their
// own offsets; the slice is always exactly PageSize long when non-nil.
// Read paths use View, which never allocates.
func (p *Page) Data() []byte {
	if !p.backed {
		return nil
	}
	return p.own()[:]
}

// View returns the page's current bytes for reading, never allocating:
// nil when the page has no storage (it reads as zeros) or is unbacked.
// The slice may be a block other pages share: callers must not write
// through it (use PhysMem.Store or Data).
func (p *Page) View() []byte {
	if b, _ := deref(p.data.Load()); b != nil {
		return b[:]
	}
	return nil
}

// Backed reports whether the page's pool stores bytes.
func (p *Page) Backed() bool { return p.backed }

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
// of frames managed by the buddy allocator (buddy.go).  A fresh pool hands
// out frames 1, 2, 3, ... in order; AllocContig serves aligned physically
// contiguous extents, and freed frames coalesce so contiguity recovers
// after churn.
type PhysMem struct {
	mu sync.Mutex
	// pages is the frame registry: pages[f-1] is the Page backing frame f,
	// filled once at construction and never rebound, so PageByFrame (the
	// MMU model's hot path) reads it without a lock.
	pages []*Page

	// blocks interns the immutable blocks whole-page stores share
	// (store.go).
	blocks blockTable

	// Per-socket order-indexed free lists and fragmentation counters, all
	// guarded by mu (see buddy.go).  On the default one-socket partition
	// orders[0] is exactly the flat buddy free list.
	orders     [][]orderHeap // [socket][order]
	freePages  int
	freeBySock []int
	splits     uint64
	coalesces  uint64

	// Superpage reservation watermarks (see buddy.go).  While a socket's
	// stock of intact order>=reservOrder blocks is at or below reservLow,
	// single-page allocation steers to sub-reservation blocks
	// (reservSteers) and splits a protected block only when no smaller
	// block exists anywhere (reservSpills).  reservOrder==0 disables.
	reservOrder  int
	reservLow    int
	reservSteers uint64
	reservSpills uint64

	// NUMA frame homing: frames are homed on sockets by address range
	// (framesPer frames per socket, the last socket taking the
	// remainder), fixed at construction (NewPhysMemNUMA).
	sockets   int
	framesPer int
	numaLocal uint64
	numaSpill uint64

	contigAllocs uint64
	contigFails  uint64

	allocs atomic.Uint64
	frees  atomic.Uint64
}

// NewPhysMem creates a one-socket machine with frames physical pages.
// When backed is true the pages store real bytes, paying for memory only
// as their contents come to differ (see store.go).
func NewPhysMem(frames int, backed bool) *PhysMem {
	return NewPhysMemNUMA(frames, backed, 1)
}

// NewPhysMemNUMA is NewPhysMem on a multi-socket machine: frames are homed
// on sockets by contiguous address range (frames/sockets frames per
// socket, the last socket taking the remainder) and every socket gets its
// own buddy free lists covering exactly its range.  Socket-preferring
// allocation (AllocNOn, AllocContigOn) drains the caller's home lists before
// spilling; sockets=1 is exactly NewPhysMem.
func NewPhysMemNUMA(frames int, backed bool, sockets int) *PhysMem {
	if frames <= 0 {
		panic("vm: NewPhysMem with no frames")
	}
	sockets = min(max(sockets, 1), frames)
	pm := &PhysMem{
		pages:      make([]*Page, frames),
		orders:     make([][]orderHeap, sockets),
		freeBySock: make([]int, sockets),
		sockets:    sockets,
		framesPer:  frames / sockets,
	}
	// Frame numbers start at 1 so that frame 0 / physical address 0 can
	// serve as a sentinel ("no frame") throughout the MMU model.
	for i := range pm.pages {
		pm.pages[i] = &Page{frame: uint64(i + 1), backed: backed}
	}
	pm.buildCoverLocked()
	return pm
}

// Frames returns the total number of frames in the pool.
func (pm *PhysMem) Frames() int { return len(pm.pages) }

// FreeFrames returns the number of frames currently free.
func (pm *PhysMem) FreeFrames() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.freePages
}

// Alloc allocates one physical page: the lowest-addressed free frame.
func (pm *PhysMem) Alloc() (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.buddyAllocOneLocked()
}

// AllocN allocates n pages, returning them in allocation order.  The
// allocation is promotion-aware: when the sub-covering stock cannot serve
// the request, the pages come from one covering block as a physically
// contiguous ascending extent (so a consumer that maps them as an aligned
// run can superpage-promote); otherwise frames are gathered
// smallest-block-first, consuming fragments while the pool's
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
// NUMALocalPages, spilled pages in NUMASpillPages.  socket < 0 (or a
// one-socket pool) is exactly AllocN.
func (pm *PhysMem) AllocNOn(socket, n int) ([]*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.buddyAllocNLocked(socket, n)
}

// Free returns a page to the free pool.  Freeing a wired page panics: a
// wired page is on loan to some subsystem and releasing its frame would be
// a use-after-free.
//
// A page that owns its buffer is cleared in place and keeps it, so a
// reused page (PostMark's blocks) allocates nothing; the clear runs BEFORE
// the pool mutex is taken, since until the page reaches a free list the
// freeing thread owns it exclusively.  A shared page, or one with no
// storage, just drops its reference: no memclr, and the interned block
// stays intact for its other sharers.
func (pm *PhysMem) Free(p *Page) {
	if p.Wired() {
		panic(fmt.Sprintf("vm: freeing wired %v", p))
	}
	if r := p.data.Load(); r != nil {
		if b, shared := deref(r); shared {
			p.data.CompareAndSwap(r, nil)
		} else {
			clear(b[:])
		}
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.frees.Add(1)
	pm.insertBlockLocked(p.Frame(), 0)
}

// PageByFrame returns the page with the given frame number, or nil when the
// frame is out of range (including the 0 sentinel).  It is how the MMU model
// turns a (possibly stale) TLB translation back into storage.
func (pm *PhysMem) PageByFrame(frame uint64) *Page {
	if frame == 0 || frame > uint64(len(pm.pages)) {
		return nil
	}
	return pm.pages[frame-1]
}

// Stats returns cumulative allocation and free counts.
func (pm *PhysMem) Stats() (allocs, frees uint64) {
	return pm.allocs.Load(), pm.frees.Load()
}
