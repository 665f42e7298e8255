package vm

// Buddy physical-frame allocation, the one allocator every pool runs.  The
// seed allocator was a LIFO free stack: contiguity existed only on a fresh
// machine, and the first churn epoch destroyed it forever — once the
// stack's order is a random permutation, AllocN hands out scattered frames
// until reboot, and the superpage promotion path (which demands physically
// contiguous, aligned frames) fires only for pools allocated at boot.
//
// The buddy allocator makes contiguity a renewable resource.  Free memory
// is kept in order-indexed free lists: order k holds blocks of 1<<k
// frames whose start frame is aligned to the block size.  Allocation
// splits the smallest sufficient block (charging Splits); freeing a block
// re-inserts it and greedily merges it with its buddy — the unique
// same-sized neighbor at start^size — as long as the buddy is also free
// (charging Coalesces).  Blocks within each order are kept in a min-heap
// by start frame, so allocation is address-sorted and deterministic:
// a fresh machine hands out frames 1, 2, 3, ... exactly as the LIFO
// stack did, and a drained machine coalesces back to the same maximal
// block cover it booted with, no matter in what order the frees arrived.
// The paper's figure kernels therefore replay exactly on it.
//
// On a multi-socket machine (NewPhysMemNUMA) the free lists are kept
// per socket: frames are homed on sockets by contiguous address range, each
// socket gets its own order-indexed heaps covering exactly its range, and
// blocks never straddle a socket boundary (the boot cover is built per
// socket, merges only combine blocks from the same socket's heaps, and
// freeRangeLocked clips blocks at the boundary).  AllocOn/AllocNOn/
// AllocContigOn drain the preferred socket's lists before spilling to the
// others in ascending order; since socket ranges ascend by address, the
// socket-agnostic forms (preference -1) still hand out the globally
// lowest-addressed free frames — on one socket the allocator is
// bit-identical to the flat PR 5 buddy.
//
// Frame 0 stays the "no frame" sentinel: the cover starts at frame 1, so
// the order-0 block {1} simply has no free buddy, ever.

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// MaxContigOrder is the largest buddy block order: blocks span at most
// 1<<MaxContigOrder frames (4 MB of 4 KB pages), comfortably covering the
// 2 MB-equivalent superpage span with alignment to spare.
const MaxContigOrder = 10

// MaxContigPages is the largest physically contiguous extent AllocContig
// can return in one call; wider pools are built from multiple extents.
const MaxContigPages = 1 << MaxContigOrder

// ErrNoContig is returned by AllocContig when no free block can satisfy
// the requested size and alignment — the request is wider than
// MaxContigPages, or fragmentation has (for now) consumed every covering
// block.  Frames may still be free: callers that can live with scattered
// pages fall back to AllocN.
var ErrNoContig = errors.New("vm: no physically contiguous extent available")

// orderHeap is one order's free list: a min-heap of block start frames
// with a position index, so the lowest-addressed block pops in O(log n)
// and a specific buddy can be removed for coalescing in O(log n).
type orderHeap struct {
	starts []uint64
	pos    map[uint64]int
}

func (h *orderHeap) len() int { return len(h.starts) }

func (h *orderHeap) swap(i, j int) {
	h.starts[i], h.starts[j] = h.starts[j], h.starts[i]
	h.pos[h.starts[i]] = i
	h.pos[h.starts[j]] = j
}

func (h *orderHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.starts[p] <= h.starts[i] {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *orderHeap) siftDown(i int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h.starts) && h.starts[l] < h.starts[m] {
			m = l
		}
		if r < len(h.starts) && h.starts[r] < h.starts[m] {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *orderHeap) push(s uint64) {
	if h.pos == nil {
		h.pos = make(map[uint64]int)
	}
	h.starts = append(h.starts, s)
	h.pos[s] = len(h.starts) - 1
	h.siftUp(len(h.starts) - 1)
}

func (h *orderHeap) popMin() uint64 {
	s := h.starts[0]
	h.removeAt(0)
	return s
}

// remove deletes the block starting at s, reporting whether it was free
// at this order — the buddy-merge probe.
func (h *orderHeap) remove(s uint64) bool {
	i, ok := h.pos[s]
	if !ok {
		return false
	}
	h.removeAt(i)
	return true
}

func (h *orderHeap) removeAt(i int) {
	last := len(h.starts) - 1
	delete(h.pos, h.starts[i])
	if i != last {
		h.starts[i] = h.starts[last]
		h.pos[h.starts[i]] = i
	}
	h.starts = h.starts[:last]
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
}

// buildCoverLocked covers each socket's range with maximal aligned
// blocks (frame 0 is the sentinel and is never part of any block).
// Because the cover is built per socket, no free block ever straddles a
// socket boundary.  Caller holds pm.mu (or owns the pool exclusively
// during construction); the pool must be fully free.
func (pm *PhysMem) buildCoverLocked() {
	pm.freePages = 0
	for s := 0; s < pm.sockets; s++ {
		pm.orders[s] = make([]orderHeap, MaxContigOrder+1)
		pm.freeBySock[s] = 0
		lo, hi := pm.socketRange(s)
		for start := lo; start <= hi; {
			k := MaxContigOrder
			for k > 0 && (start&(1<<k-1) != 0 || start+1<<k-1 > hi) {
				k--
			}
			pm.orders[s][k].push(start)
			pm.freePages += 1 << k
			pm.freeBySock[s] += 1 << k
			start += 1 << k
		}
	}
}

// SocketOfFrame returns the home socket of the given frame: the socket
// whose address range contains it.  Frame 0 (the "no frame" sentinel) and
// one-socket pools report socket 0.
func (pm *PhysMem) SocketOfFrame(f uint64) int {
	if pm.sockets <= 1 || f == 0 {
		return 0
	}
	s := int((f - 1) / uint64(pm.framesPer))
	if s >= pm.sockets {
		s = pm.sockets - 1
	}
	return s
}

// socketRange returns the inclusive frame range homed on socket s.  The
// last socket absorbs the remainder when frames does not divide evenly.
func (pm *PhysMem) socketRange(s int) (lo, hi uint64) {
	lo = uint64(s*pm.framesPer) + 1
	hi = uint64((s + 1) * pm.framesPer)
	if s == pm.sockets-1 {
		hi = uint64(len(pm.pages))
	}
	return lo, hi
}

// eachSocketFrom visits sockets in allocation-preference order: pref first
// (when valid), then the rest ascending.  fn returns false to stop.  With
// pref < 0 the visit is plain ascending, which — because socket ranges
// ascend by address — preserves the flat allocator's global
// lowest-frame-first order.  Caller holds pm.mu.
func (pm *PhysMem) eachSocketFrom(pref int, fn func(s int) bool) {
	if pref >= 0 && pref < pm.sockets {
		if !fn(pref) {
			return
		}
	}
	for s := 0; s < pm.sockets; s++ {
		if s == pref {
			continue
		}
		if !fn(s) {
			return
		}
	}
}

// countHomeLocked records where a socket-preferring allocation was served
// from: n pages from the preferred socket count as NUMA-local, anything
// else as spill.  Socket-agnostic allocations (pref < 0) and one-socket
// pools don't move the gauges.  Caller holds pm.mu.
func (pm *PhysMem) countHomeLocked(pref, served, n int) {
	if pm.sockets <= 1 || pref < 0 {
		return
	}
	if served == pref {
		pm.numaLocal += uint64(n)
	} else {
		pm.numaSpill += uint64(n)
	}
}

// orderFor returns the smallest order whose blocks hold at least n frames.
func orderFor(n int) int {
	return bits.Len(uint(n - 1))
}

// SetReservation installs per-socket reservation watermarks: while a
// socket's stock of intact order>=order blocks covers at most lowWater
// aligned order-sized spans, single-page service (Alloc/AllocN) steers to
// sub-reservation blocks and splits a protected block only when no smaller
// block is free anywhere — the FreeBSD-reservation-style defense that keeps
// the last superpage-capable blocks intact for AllocContig under sustained
// churn.  order<=0 disables the reservation.  AllocContig
// itself is never steered: consuming spans is its purpose.
func (pm *PhysMem) SetReservation(order, lowWater int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if order <= 0 || order > MaxContigOrder || lowWater <= 0 {
		pm.reservOrder, pm.reservLow = 0, 0
		return
	}
	pm.reservOrder, pm.reservLow = order, lowWater
}

// Reservation returns the active reservation (order, lowWater); both zero
// when disabled.
func (pm *PhysMem) Reservation() (order, lowWater int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.reservOrder, pm.reservLow
}

// spanStockLocked counts socket s's intact reserved spans: each free block
// of order k >= reservOrder holds 1<<(k-reservOrder) aligned spans.
// Caller holds pm.mu; reservOrder > 0.
func (pm *PhysMem) spanStockLocked(s int) int {
	stock := 0
	for k := pm.reservOrder; k <= MaxContigOrder; k++ {
		stock += pm.orders[s][k].len() << (k - pm.reservOrder)
	}
	return stock
}

// protectedLocked reports whether socket s's reserved stock is at or below
// the watermark, so single-page service must avoid order>=reservOrder
// blocks while any smaller block exists.  Caller holds pm.mu.
func (pm *PhysMem) protectedLocked(s int) bool {
	return pm.reservOrder > 0 && pm.spanStockLocked(s) <= pm.reservLow
}

// pickLowestLocked finds the lowest-addressed free block on socket s.
// maxOrder > 0 restricts the scan to orders below it (the reservation
// steering form); maxOrder <= 0 scans every order.  Free blocks partition
// the socket's free space, so the minimum of the per-order heap tops is
// its lowest eligible free frame.  Returns order -1 when no eligible block
// exists.  Caller holds pm.mu.
func (pm *PhysMem) pickLowestLocked(s, maxOrder int) (start uint64, order int) {
	order = -1
	lim := len(pm.orders[s])
	if maxOrder > 0 && maxOrder < lim {
		lim = maxOrder
	}
	for k := 0; k < lim; k++ {
		if pm.orders[s][k].len() == 0 {
			continue
		}
		if b := pm.orders[s][k].starts[0]; order < 0 || b < start {
			start, order = b, k
		}
	}
	return start, order
}

// takeBlockLocked removes and returns the lowest-addressed free block of
// order k homed on socket s, splitting the smallest sufficient larger
// block when order k is empty.  Caller holds pm.mu.
func (pm *PhysMem) takeBlockLocked(s, k int) (uint64, bool) {
	j := k
	for j <= MaxContigOrder && pm.orders[s][j].len() == 0 {
		j++
	}
	if j > MaxContigOrder {
		return 0, false
	}
	start := pm.orders[s][j].popMin()
	for ; j > k; j-- {
		pm.orders[s][j-1].push(start + 1<<(j-1))
		pm.splits++
	}
	pm.freePages -= 1 << k
	pm.freeBySock[s] -= 1 << k
	return start, true
}

// insertBlockLocked frees the block [start, start+1<<k) with address-
// sorted coalescing: while the block's buddy (the unique same-sized
// neighbor at start^size) is also free, the pair merges one order up.
// The block's home socket is derived from its start frame; since blocks
// never straddle socket boundaries and the buddy probe only consults the
// home socket's heaps, merges never cross a boundary either.  Caller
// holds pm.mu.
func (pm *PhysMem) insertBlockLocked(start uint64, k int) {
	s := pm.SocketOfFrame(start)
	pm.freePages += 1 << k
	pm.freeBySock[s] += 1 << k
	for k < MaxContigOrder {
		buddy := start ^ (1 << k)
		if !pm.orders[s][k].remove(buddy) {
			break
		}
		pm.coalesces++
		if buddy < start {
			start = buddy
		}
		k++
	}
	pm.orders[s][k].push(start)
}

// freeRangeLocked frees the frame range [start, start+n) as maximal
// aligned blocks, clipped so no block straddles a socket boundary.  Caller holds pm.mu.
func (pm *PhysMem) freeRangeLocked(start uint64, n int) {
	for n > 0 {
		k := bits.TrailingZeros64(start)
		if k > MaxContigOrder {
			k = MaxContigOrder
		}
		for 1<<k > n {
			k--
		}
		for k > 0 && pm.SocketOfFrame(start+1<<k-1) != pm.SocketOfFrame(start) {
			k--
		}
		pm.insertBlockLocked(start, k)
		start += 1 << k
		n -= 1 << k
	}
}

// takeOneAtLocked removes the single frame best from the order-bestK free
// block holding it on socket s, splitting the block down.  Caller holds
// pm.mu and has located the block via pickLowestLocked.
func (pm *PhysMem) takeOneAtLocked(s int, best uint64, bestK int) *Page {
	pm.orders[s][bestK].remove(best)
	for j := bestK; j > 0; j-- {
		pm.orders[s][j-1].push(best + 1<<(j-1))
		pm.splits++
	}
	pm.freePages--
	pm.freeBySock[s]--
	return pm.pages[best-1]
}

// buddyAllocOneLocked allocates the lowest-addressed free page on the
// preferred socket (falling through the rest ascending when it is
// drained), splitting the block that holds it.  Address-ordered
// allocation keeps single-page churn compacted at the bottom of each
// socket's range (higher blocks stay whole for AllocContig) and makes a
// fresh machine hand out frames 1, 2, 3, ... — the exact sequence the
// LIFO stack produced.  pref < 0 means no preference.
//
// Reservation steering: on a socket whose reserved stock is at the
// watermark the scan is restricted to sub-reservation blocks
// (ReservSteers counts picks the restriction actually changed); a socket
// whose free space is ONLY protected blocks is passed over.  If the whole
// pass comes up empty while frames remain free, a second unrestricted
// pass splits a protected block and counts ReservSpills — the explicit
// spill when small blocks are truly exhausted.  Caller holds pm.mu.
func (pm *PhysMem) buddyAllocOneLocked(pref int) (*Page, error) {
	var pg *Page
	served := -1
	pm.eachSocketFrom(pref, func(s int) bool {
		if pm.freeBySock[s] == 0 {
			return true
		}
		best, bestK := pm.pickLowestLocked(s, 0)
		if pm.protectedLocked(s) && bestK >= pm.reservOrder {
			sb, sk := pm.pickLowestLocked(s, pm.reservOrder)
			if sk < 0 {
				return true // only protected blocks here; try elsewhere
			}
			best, bestK = sb, sk
			pm.reservSteers++
		}
		pg = pm.takeOneAtLocked(s, best, bestK)
		served = s
		return false
	})
	if pg == nil && pm.freePages > 0 {
		// Every free frame sits in a protected block: spill explicitly.
		pm.eachSocketFrom(pref, func(s int) bool {
			if pm.freeBySock[s] == 0 {
				return true
			}
			best, bestK := pm.pickLowestLocked(s, 0)
			pg = pm.takeOneAtLocked(s, best, bestK)
			served = s
			pm.reservSpills++
			return false
		})
	}
	if pg == nil {
		return nil, ErrNoMemory
	}
	pm.countHomeLocked(pref, served, 1)
	pm.allocs.Add(1)
	return pg, nil
}

// buddyAllocNLocked allocates n pages by address-ordered gather within
// each visited socket: take the lowest-addressed free block whole while
// it fits, and carve only the block that straddles the remaining need.
// The preferred socket is drained first; a shortfall spills to the other
// sockets ascending (counted in the NUMA gauges).  On a fresh (or fully
// coalesced) machine the free space is one contiguous span from the
// lowest free frame, so the socket-agnostic gather is a physically
// contiguous ascending extent — frames 1..n on a fresh boot, exactly the
// LIFO pool's sequence — which is what makes AllocN promotion-aware.
// Under fragmentation the gather consumes the low-address fragments churn
// leaves behind before it reaches (and splits) the intact high blocks,
// so routine scattered demand does not cannibalize the superpage-
// capable stock AllocContig depends on.  Caller holds pm.mu.
// Reservation steering applies as in buddyAllocOneLocked: at the
// watermark the gather is restricted to sub-reservation blocks (counted
// once per restricted gather in ReservSteers) and moves on when a socket
// has only protected blocks left; a shortfall after the restricted pass
// finishes from protected blocks in a second pass, counted once in
// ReservSpills.
func (pm *PhysMem) buddyAllocNLocked(pref, n int) ([]*Page, error) {
	if pm.freePages < n {
		return nil, ErrNoMemory
	}
	out := make([]*Page, 0, n)
	local := 0
	steered := false
	gather := func(s int, restricted bool) {
		for len(out) < n && pm.freeBySock[s] > 0 {
			maxOrder := 0
			if restricted && pm.protectedLocked(s) {
				maxOrder = pm.reservOrder
			}
			best, bestK := pm.pickLowestLocked(s, maxOrder)
			if bestK < 0 {
				return // only protected blocks left on this socket
			}
			if maxOrder > 0 && !steered {
				if _, uk := pm.pickLowestLocked(s, 0); uk >= pm.reservOrder {
					steered = true
					pm.reservSteers++
				}
			}
			pm.orders[s][bestK].remove(best)
			size := 1 << bestK
			pm.freePages -= size
			pm.freeBySock[s] -= size
			if need := n - len(out); size <= need {
				for f := best; f < best+uint64(size); f++ {
					out = append(out, pm.pages[f-1])
				}
			} else {
				out = append(out, pm.carveLocked(best, bestK, need)...)
			}
		}
	}
	pm.eachSocketFrom(pref, func(s int) bool {
		gather(s, true)
		if s == pref {
			local = len(out)
		}
		return len(out) < n
	})
	if len(out) < n {
		// Small blocks are exhausted everywhere; finish from the protected
		// stock explicitly.
		pm.reservSpills++
		pm.eachSocketFrom(pref, func(s int) bool {
			before := len(out)
			gather(s, false)
			if s == pref {
				local += len(out) - before
			}
			return len(out) < n
		})
	}
	pm.countHomeLocked(pref, pref, local)
	pm.countHomeLocked(pref, -1, n-local)
	pm.allocs.Add(uint64(n))
	return out, nil
}

// carveLocked turns the first n frames of the order-k block at start into
// allocated pages and frees the tail back.  Caller holds pm.mu; the block
// has been taken (takeBlockLocked) already.
func (pm *PhysMem) carveLocked(start uint64, k, n int) []*Page {
	out := make([]*Page, 0, n)
	for f := start; f < start+uint64(n); f++ {
		out = append(out, pm.pages[f-1])
	}
	if tail := 1<<k - n; tail > 0 {
		pm.freeRangeLocked(start+uint64(n), tail)
	}
	return out
}

// AllocContig allocates n physically contiguous pages whose first frame
// is aligned to align (a power of two; 1 or 0 means no constraint), in
// ascending frame order.  Subsystems that need superpage-eligible extents
// — the sharded engine's aligned run windows, amd64 direct-map windows,
// memory-disk pools — ask here; when fragmentation has consumed every
// covering block it returns ErrNoContig and the caller falls back to
// AllocN's scattered pages.
func (pm *PhysMem) AllocContig(n, align int) ([]*Page, error) {
	return pm.AllocContigOn(-1, n, align)
}

// AllocContigOn is AllocContig preferring a block homed on the given
// socket, spilling to the other sockets' lists ascending when the
// preferred one has no covering block.  A contiguous extent never spans
// sockets (blocks don't straddle the boundary), so the whole extent is
// local or the whole extent is spill.  socket < 0 (or a one-socket pool)
// is exactly AllocContig.
func (pm *PhysMem) AllocContigOn(socket, n, align int) ([]*Page, error) {
	if n <= 0 {
		return nil, fmt.Errorf("vm: AllocContig of %d pages", n)
	}
	if align <= 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return nil, fmt.Errorf("vm: AllocContig alignment %d is not a power of two", align)
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if n > MaxContigPages || align > MaxContigPages {
		pm.contigFails++
		return nil, ErrNoContig
	}
	// A block of order k >= max(orderFor(n), log2(align)) starts on a
	// multiple of its own size, so it satisfies both constraints at once.
	k := orderFor(n)
	if ak := orderFor(align); ak > k {
		k = ak
	}
	var start uint64
	served := -1
	pm.eachSocketFrom(socket, func(s int) bool {
		if got, ok := pm.takeBlockLocked(s, k); ok {
			start, served = got, s
			return false
		}
		return true
	})
	if served < 0 {
		pm.contigFails++
		if pm.freePages < n {
			return nil, ErrNoMemory
		}
		return nil, ErrNoContig
	}
	out := pm.carveLocked(start, k, n)
	pm.countHomeLocked(socket, served, n)
	pm.contigAllocs++
	pm.allocs.Add(uint64(n))
	return out, nil
}

// PhysStats is a point-in-time fragmentation picture of a physical pool.
type PhysStats struct {
	// Frames and FreeFrames are the pool size and current free count.
	Frames     int
	FreeFrames int
	// FreeBlocks counts free blocks per order (index = order, block size
	// 1<<order frames), aggregated across sockets; the shape of
	// fragmentation.
	FreeBlocks []int
	// LargestFreeExtent is the longest physically contiguous free frame
	// run in pages — adjacency across block boundaries included, so it can
	// exceed the largest block.  It is what bounds the biggest extent any
	// sequence of AllocContig calls could reassemble.
	LargestFreeExtent int
	// Splits and Coalesces count block splits on allocation and buddy
	// merges on free; their ratio over time is the churn the allocator
	// absorbed while keeping contiguity recoverable.
	Splits    uint64
	Coalesces uint64
	// ContigAllocs and ContigFails count AllocContig calls that returned
	// an extent vs. calls refused for want of a covering block.
	ContigAllocs uint64
	ContigFails  uint64
	// ReservSteers counts single-page allocations the reservation watermark
	// redirected away from a protected block; ReservSpills counts
	// allocations that had to split a protected block because no smaller
	// block was free anywhere.  Zero while no reservation is installed.
	ReservSteers uint64
	ReservSpills uint64
	// Allocs and Frees are the cumulative page counts.
	Allocs uint64
	Frees  uint64
	// Sockets is the homing partition width; FreeBySocket the free count
	// per socket.
	Sockets      int
	FreeBySocket []int
	// NUMALocalPages and NUMASpillPages count pages served by
	// socket-preferring allocations from the preferred socket vs. spilled
	// to another; always zero on one-socket pools.
	NUMALocalPages uint64
	NUMASpillPages uint64
}

// PhysStats snapshots the pool's fragmentation statistics.
func (pm *PhysMem) PhysStats() PhysStats {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	s := PhysStats{
		Frames:         len(pm.pages),
		FreeFrames:     pm.freePages,
		FreeBySocket:   append([]int(nil), pm.freeBySock...),
		FreeBlocks:     make([]int, MaxContigOrder+1),
		Splits:         pm.splits,
		Coalesces:      pm.coalesces,
		ContigAllocs:   pm.contigAllocs,
		ContigFails:    pm.contigFails,
		ReservSteers:   pm.reservSteers,
		ReservSpills:   pm.reservSpills,
		Allocs:         pm.allocs.Load(),
		Frees:          pm.frees.Load(),
		Sockets:        pm.sockets,
		NUMALocalPages: pm.numaLocal,
		NUMASpillPages: pm.numaSpill,
	}
	var extents []extent
	for sock := range pm.orders {
		for k := range pm.orders[sock] {
			s.FreeBlocks[k] += pm.orders[sock][k].len()
			for _, start := range pm.orders[sock][k].starts {
				extents = append(extents, extent{start, 1 << k})
			}
		}
	}
	s.LargestFreeExtent = largestExtent(extents)
	return s
}

type extent struct {
	start uint64
	n     int
}

// largestExtent merges adjacent free extents and returns the longest
// contiguous run in pages.
func largestExtent(extents []extent) int {
	if len(extents) == 0 {
		return 0
	}
	sort.Slice(extents, func(i, j int) bool { return extents[i].start < extents[j].start })
	best, cur := 0, extents[0]
	for _, e := range extents[1:] {
		if e.start == cur.start+uint64(cur.n) {
			cur.n += e.n
			continue
		}
		if cur.n > best {
			best = cur.n
		}
		cur = e
	}
	if cur.n > best {
		best = cur.n
	}
	return best
}

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
