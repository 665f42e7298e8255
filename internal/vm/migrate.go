package vm

// Defragmentation-by-migration support: the buddy allocator's side of the
// Migrator (internal/sfbuf/migrate.go).  The allocator owns the free-space
// geometry, so it answers the two placement questions — which
// superpage-span blocks are nearly free enough to be worth evacuating, and
// where should an evacuated page land — and performs the one mutation
// migration needs from the physical layer: rebinding a resident logical
// page to a different frame (SwapFrames) while every holder of the *Page
// keeps its handle.
//
// The honest-TLB contract shapes the frame swap.  A stale TLB entry still
// points at the OLD frame after a migration, and the model must keep
// serving the old bytes from it until the migrator's accumulated shootdown
// flush lands — exactly like real memory, where the source frame retains
// its contents until reclaimed.  The migrator therefore gives the
// destination page the resident's contents first (charged per byte) — the
// same shared block, or a copy of an owned buffer — and SwapFrames then
// exchanges the two Page handles' frame numbers and registry slots: the
// resident handle keeps the original storage at its new frame, while the
// doomed handle — now holding the old frame and byte-identical contents —
// keeps stale translations honest until it is freed (which zeroes it, so
// any access after the flush horizon reads garbage and the coherence tests
// can see the bug).

import (
	"fmt"
	"sort"
)

// FreeBlock describes one free buddy block: 1<<Order frames starting at
// frame Start, homed on Socket.
type FreeBlock struct {
	Start  uint64
	Order  int
	Socket int
}

// FreeBlocks snapshots every free block in the pool, sorted by start
// frame.  It is the raw material for the physcheck invariant auditor.
func (pm *PhysMem) FreeBlocks() []FreeBlock {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []FreeBlock
	for s := range pm.orders {
		for k := range pm.orders[s] {
			for _, start := range pm.orders[s][k].starts {
				out = append(out, FreeBlock{Start: start, Order: k, Socket: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// MigrationCandidate is a nearly-free aligned span worth evacuating:
// Resident frames still allocated out of the Span-frame window starting at
// Start (the rest are free fragments that will coalesce into one intact
// block once the residents move out).
type MigrationCandidate struct {
	Start    uint64
	Span     int
	Resident int
	Socket   int
}

// MigrationCandidates finds up to limit aligned spanPages-frame spans with
// 0 < resident <= maxResident allocated frames, cheapest (fewest
// residents, then lowest address) first.  spanPages must be a power of two
// no larger than MaxContigPages.  Span 0 is never a candidate (frame 0 is
// the "no frame" sentinel, so that span can never coalesce whole), and a
// span straddling a socket boundary cannot become one block either.
func (pm *PhysMem) MigrationCandidates(spanPages, maxResident, limit int) []MigrationCandidate {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if spanPages <= 0 || spanPages&(spanPages-1) != 0 || spanPages > MaxContigPages {
		return nil
	}
	spanOrder := orderFor(spanPages)
	// Free frames per span index, accumulated from sub-span blocks only: a
	// block of order >= spanOrder means its spans are already fully free,
	// and a sub-span block's alignment keeps it inside one span.
	freeIn := make(map[uint64]int)
	for s := range pm.orders {
		for k := 0; k < spanOrder && k < len(pm.orders[s]); k++ {
			for _, start := range pm.orders[s][k].starts {
				freeIn[start/uint64(spanPages)] += 1 << k
			}
		}
	}
	var out []MigrationCandidate
	for span, free := range freeIn {
		resident := spanPages - free
		if span == 0 || resident <= 0 || resident > maxResident {
			continue
		}
		lo := span * uint64(spanPages)
		sock := pm.SocketOfFrame(lo)
		if pm.SocketOfFrame(lo+uint64(spanPages)-1) != sock {
			continue
		}
		out = append(out, MigrationCandidate{Start: lo, Span: spanPages, Resident: resident, Socket: sock})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Resident != out[j].Resident {
			return out[i].Resident < out[j].Resident
		}
		return out[i].Start < out[j].Start
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ResidentFrames returns the currently allocated frames within
// [start, start+span), ascending — the pages a migrator must evacuate to
// make the span whole.
func (pm *PhysMem) ResidentFrames(start uint64, span int) []uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	free := make(map[uint64]bool, span)
	for s := range pm.orders {
		for k := range pm.orders[s] {
			for _, bs := range pm.orders[s][k].starts {
				size := uint64(1) << k
				if bs+size <= start || bs >= start+uint64(span) {
					continue
				}
				for f := bs; f < bs+size; f++ {
					if f >= start && f < start+uint64(span) {
						free[f] = true
					}
				}
			}
		}
	}
	var out []uint64
	for f := start; f < start+uint64(span); f++ {
		if f == 0 || free[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// MigrationTarget allocates one destination page for an evacuation: the
// lowest-addressed free frame on the given socket that sits in a
// sub-spanOrder block outside [avoidLo, avoidHi) — so the destination
// fills an existing fragment (compaction), never breaks an intact span
// block, and never lands inside the span being evacuated.  ErrNoMemory
// means no such frame exists and the caller should abandon this span.
func (pm *PhysMem) MigrationTarget(socket, spanOrder int, avoidLo, avoidHi uint64) (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if socket < 0 || socket >= pm.sockets {
		return nil, ErrNoMemory
	}
	bestK := -1
	var best uint64
	lim := spanOrder
	if lim > len(pm.orders[socket]) {
		lim = len(pm.orders[socket])
	}
	for k := 0; k < lim; k++ {
		for _, bs := range pm.orders[socket][k].starts {
			if bs >= avoidLo && bs < avoidHi {
				continue // sub-span blocks are span-contained: skip the victim's
			}
			if bestK < 0 || bs < best {
				best, bestK = bs, k
			}
		}
	}
	if bestK < 0 {
		return nil, ErrNoMemory
	}
	pg := pm.takeOneAtLocked(socket, best, bestK)
	pm.allocs.Add(1)
	return pg, nil
}

// SwapFrames exchanges the physical frames backing pages a and b: each
// handle keeps its storage and wire count but answers with the
// other's frame number, and the frame registry is rebound to match.  Both
// pages must be allocated (the caller owns them); the migrator pairs a
// resident page with a freshly allocated destination whose storage it has
// already filled with the resident's bytes.
func (pm *PhysMem) SwapFrames(a, b *Page) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.swapFramesLocked(a, b)
}

func (pm *PhysMem) swapFramesLocked(a, b *Page) {
	if a == b {
		return
	}
	fa, fb := a.frame.Load(), b.frame.Load()
	if fa == 0 || fb == 0 || fa > uint64(len(pm.pages)) || fb > uint64(len(pm.pages)) {
		panic(fmt.Sprintf("vm: SwapFrames of unregistered frames %d, %d", fa, fb))
	}
	pm.pages[fa-1].Store(b)
	pm.pages[fb-1].Store(a)
	a.frame.Store(fb)
	b.frame.Store(fa)
}

// frameFreeLocked reports whether frame f currently sits inside some free
// block.  Free blocks are aligned to their own size, so f's covering block
// at order k — if free — starts exactly at f with the low k bits cleared;
// one O(1) heap-position probe per order answers the question.  Caller
// holds pm.mu.
func (pm *PhysMem) frameFreeLocked(f uint64) bool {
	s := pm.SocketOfFrame(f)
	for k := 0; k < len(pm.orders[s]); k++ {
		start := f &^ (uint64(1)<<k - 1)
		if _, ok := pm.orders[s][k].pos[start]; ok {
			return true
		}
	}
	return false
}

// MigratePage is the atomic heart of an evacuation: verify that src still
// backs an allocated, unwired frame, give dst src's contents (the same
// shared block, or a copy of an owned buffer), and swap the two handles'
// frames — all under the pool lock, so a racing Free of src cannot
// interleave with the swap.  On success src answers with dst's old frame
// (same storage, same bytes) and dst holds src's old frame with
// byte-identical contents, keeping stale TLB entries honest until
// the caller's shootdown flush lands and dst is freed.  Returns false —
// with no state changed — when src was freed or wired since the caller
// chose it; the caller should free dst unswapped and abandon the page.
func (pm *PhysMem) MigratePage(src, dst *Page) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if src == dst {
		return false
	}
	fs := src.frame.Load()
	if fs == 0 || fs > uint64(len(pm.pages)) || pm.pages[fs-1].Load() != src {
		return false
	}
	if src.Wired() || pm.frameFreeLocked(fs) {
		return false
	}
	if r := src.data.Load(); r != nil {
		if b, shared := deref(r); shared {
			dst.data.Store(r) // dst is the caller's alone until the swap publishes it
		} else {
			*dst.own() = *b
		}
	}
	pm.swapFramesLocked(src, dst)
	return true
}
