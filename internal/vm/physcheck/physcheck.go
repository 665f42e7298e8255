// Package physcheck is the contiguity invariant layer for the buddy
// physical allocator: reusable assertions that reservation test traces run
// after EVERY operation.
//
// Three families of checks:
//
//   - Audit: structural free-list invariants — every free block is aligned
//     to its own size, blocks do not overlap, no block straddles a socket
//     boundary, and the blocks sum exactly to the free counters (global
//     and per socket).
//
//   - Checker: the temporal reservation invariant — between two steps, a
//     socket whose intact reserved-span stock was at or below the
//     watermark may lose stock only to an AllocContig (consuming spans is
//     its purpose) or to an explicitly counted spill, and a spill is legal
//     only when no sub-reservation block was free anywhere.  In other
//     words: no reserved-order block is silently split while a smaller
//     block existed.
//
//   - Oracle: the byte oracle — a snapshot of held pages' bytes and
//     identities; after any sequence of allocator operations every page
//     handle must still carry its exact bytes and the frame registry must
//     still resolve the handle's frame back to it.
//
// The checks are error-returning rather than *testing.T-bound so any
// suite can share them.
package physcheck

import (
	"bytes"
	"fmt"
	"sort"

	"sfbuf/internal/vm"
)

// Audit verifies the structural free-list invariants of a pool.
func Audit(pm *vm.PhysMem) error {
	st := pm.PhysStats()
	blocks := pm.FreeBlocks()
	sum := 0
	bySock := make([]int, st.Sockets)
	for _, b := range blocks {
		size := uint64(1) << b.Order
		if b.Start&(size-1) != 0 {
			return fmt.Errorf("physcheck: block [%d,+%d) misaligned for order %d", b.Start, size, b.Order)
		}
		if b.Start == 0 || b.Start+size-1 > uint64(st.Frames) {
			return fmt.Errorf("physcheck: block [%d,+%d) out of frame range 1..%d", b.Start, size, st.Frames)
		}
		if s := pm.SocketOfFrame(b.Start); s != b.Socket || pm.SocketOfFrame(b.Start+size-1) != b.Socket {
			return fmt.Errorf("physcheck: block [%d,+%d) straddles socket %d's boundary", b.Start, size, b.Socket)
		}
		sum += int(size)
		bySock[b.Socket] += int(size)
	}
	sorted := append([]vm.FreeBlock(nil), blocks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i := 1; i < len(sorted); i++ {
		prevEnd := sorted[i-1].Start + uint64(1)<<sorted[i-1].Order
		if sorted[i].Start < prevEnd {
			return fmt.Errorf("physcheck: blocks overlap at frame %d", sorted[i].Start)
		}
	}
	if sum != st.FreeFrames {
		return fmt.Errorf("physcheck: free blocks sum to %d frames, counter says %d", sum, st.FreeFrames)
	}
	for s, n := range bySock {
		if s < len(st.FreeBySocket) && n != st.FreeBySocket[s] {
			return fmt.Errorf("physcheck: socket %d blocks sum to %d frames, counter says %d", s, n, st.FreeBySocket[s])
		}
	}
	return nil
}

// Checker carries the between-steps state of the temporal reservation
// invariant.  Create it once the pool (and its reservation) is set up,
// then call Step after every allocator operation.
type Checker struct {
	order, low int
	stock      []int  // intact reserved spans per socket at the last step
	small      int    // free sub-reservation frames anywhere at the last step
	contig     uint64 // ContigAllocs at the last step
	spills     uint64 // ReservSpills at the last step
}

// NewChecker snapshots the pool's reservation state as the baseline.
func NewChecker(pm *vm.PhysMem) *Checker {
	c := &Checker{}
	c.order, c.low = pm.Reservation()
	c.capture(pm)
	return c
}

func (c *Checker) capture(pm *vm.PhysMem) {
	st := pm.PhysStats()
	c.contig, c.spills = st.ContigAllocs, st.ReservSpills
	c.stock = make([]int, st.Sockets)
	c.small = 0
	for _, b := range pm.FreeBlocks() {
		if b.Order >= c.order {
			c.stock[b.Socket] += 1 << (b.Order - c.order)
		} else {
			c.small += 1 << b.Order
		}
	}
}

// Step checks the transition since the previous Step (or NewChecker) and
// re-snapshots.  Exactly one allocator operation should have happened in
// between.
func (c *Checker) Step(pm *vm.PhysMem) error {
	if c.order <= 0 {
		return nil // no reservation installed: nothing temporal to check
	}
	prevStock := c.stock
	prevSmall := c.small
	prevContig, prevSpills := c.contig, c.spills
	c.capture(pm)
	st := pm.PhysStats()
	for s := range prevStock {
		if s >= len(c.stock) || c.stock[s] >= prevStock[s] {
			continue // stock grew or held: nothing to justify
		}
		if prevStock[s] > c.low {
			continue // socket was above the watermark: splitting is legal
		}
		if st.ContigAllocs != prevContig {
			continue // AllocContig consumed it: that is what spans are FOR
		}
		if st.ReservSpills != prevSpills {
			if prevSmall > 0 {
				return fmt.Errorf("physcheck: spill counted on socket %d while %d sub-reservation frames were free", s, prevSmall)
			}
			continue // explicit spill with small blocks truly exhausted
		}
		return fmt.Errorf("physcheck: socket %d's protected stock dropped %d->%d with no AllocContig and no counted spill",
			s, prevStock[s], c.stock[s])
	}
	return nil
}

// Oracle is the byte oracle: a snapshot of page handles, their bytes, and
// their registry identity.
type Oracle struct {
	pages []*vm.Page
	data  [][]byte
}

// NewOracle snapshots the given pages.  Pages of an unbacked pool snapshot
// only their identity; a backed page with no storage snapshots as zeros.
func NewOracle(pages []*vm.Page) *Oracle {
	o := &Oracle{pages: append([]*vm.Page(nil), pages...), data: make([][]byte, len(pages))}
	for i, p := range o.pages {
		if p.Backed() {
			o.data[i] = make([]byte, vm.PageSize)
			copy(o.data[i], p.View()) // no storage copies nothing: zeros
		}
	}
	return o
}

// Check verifies that every snapshotted page still carries its exact bytes
// and that the frame registry resolves the page's frame back to the same
// handle.
func (o *Oracle) Check(pm *vm.PhysMem) error {
	for i, p := range o.pages {
		f := p.Frame()
		if got := pm.PageByFrame(f); got != p {
			return fmt.Errorf("physcheck: page %d's frame %d resolves to a different handle", i, f)
		}
		if o.data[i] != nil && !samePage(p.View(), o.data[i]) {
			return fmt.Errorf("physcheck: page %d (frame %d) bytes changed", i, f)
		}
	}
	return nil
}

// samePage reports whether a page's View (nil reads as zeros) holds the
// snapshot's bytes.
func samePage(view, snap []byte) bool {
	if view == nil {
		view = make([]byte, vm.PageSize)
	}
	return bytes.Equal(view, snap)
}
