package vm

// Tiered physical memory.  Production machines are not uniform: beyond the
// NUMA distance between sockets there is a capacity tier — far DRAM,
// CXL-attached or persistent memory — whose bandwidth makes every copy,
// zeroing pass, and checksum over its frames more expensive.  The simulator
// models a two-tier pool as an address split WITHIN each socket's frame
// range: the low fastPer frames of every socket are the fast tier, the
// remainder the slow tier.  Tier membership is therefore a pure function of
// the frame number, which keeps the per-access probe (smp.Context.
// ChargeBytesAt consults SlowFrame on every charged byte range) lock-free
// and O(1), and composes with NUMA homing — a socket-homed allocation can
// still prefer fast frames within its socket.
//
// On a buddy pool the tier boundary behaves exactly like a socket boundary:
// the boot cover is built per tier sub-range, freeRangeLocked clips blocks
// at the boundary, and insertBlockLocked refuses to merge a buddy pair that
// straddles it — so every free block is tier-pure and tier-targeted
// allocation can reason about block start frames alone.  On a LIFO pool the
// split is lookup-only metadata (like HomeSockets): the free stack and its
// exact allocation order are untouched, so figure-reproduction kernels stay
// bit-identical.
//
// fastPer == 0 (the default) is a single uniform tier: every probe answers
// fast, no gauge moves, and the allocator is byte-for-byte the untiered
// build.

// Physical memory tiers.  TierFast is the default tier of every frame on
// an untiered pool.
const (
	TierFast = 0
	TierSlow = 1
)

// SetTierSplit installs a fast/slow tier split: the low fastPer frames of
// each socket's range become the fast tier, the rest the slow tier.
// fastPer <= 0 removes the split (single uniform tier).  On a buddy pool
// the free-block cover is rebuilt per tier sub-range, which requires the
// pool to be fully free — call it at boot, right after construction;
// anything else panics.  On a LIFO pool only the lookup metadata changes,
// preserving the free stack's exact order.
func (pm *PhysMem) SetTierSplit(fastPer int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if fastPer < 0 {
		fastPer = 0
	}
	if fastPer > pm.framesPer {
		fastPer = pm.framesPer
	}
	pm.fastPer = fastPer
	if pm.buddy {
		if pm.freePages != len(pm.pages) {
			panic("vm: SetTierSplit on a buddy pool with allocations outstanding")
		}
		pm.buildCoverLocked()
	}
}

// Tiered reports whether a fast/slow tier split is installed.
func (pm *PhysMem) Tiered() bool { return pm.fastPer > 0 }

// TierOfFrame returns the tier housing the given frame.  Frame 0 (the
// "no frame" sentinel) and every frame of an untiered pool report
// TierFast.
func (pm *PhysMem) TierOfFrame(f uint64) int {
	if pm.fastPer <= 0 || f == 0 {
		return TierFast
	}
	s := pm.SocketOfFrame(f)
	lo := uint64(s*pm.framesPer) + 1
	if f < lo+uint64(pm.fastPer) {
		return TierFast
	}
	return TierSlow
}

// SlowFrame reports whether the frame resides in the slow tier — the
// accounting probe ChargeBytesAt runs per charged byte range.  Always
// false on a single-tier pool, where it is one integer compare.
func (pm *PhysMem) SlowFrame(f uint64) bool {
	return pm.fastPer > 0 && f != 0 && pm.TierOfFrame(f) == TierSlow
}

// tierFreeDelta adjusts the per-socket fast-tier free gauge for a
// tier-pure block of frames starting at start.  No-op on a single-tier
// pool.  Caller holds pm.mu.
func (pm *PhysMem) tierFreeDelta(s int, start uint64, frames int) {
	if pm.fastPer > 0 && pm.TierOfFrame(start) == TierFast {
		pm.freeFast[s] += frames
	}
}

// TierFrames returns the total frame capacity of the given tier.  On a
// single-tier pool every frame is fast.
func (pm *PhysMem) TierFrames(tier int) int {
	if pm.fastPer <= 0 {
		if tier == TierFast {
			return len(pm.pages)
		}
		return 0
	}
	fast := 0
	for s := 0; s < pm.sockets; s++ {
		lo, hi := pm.socketRange(s)
		size := int(hi - lo + 1)
		if size > pm.fastPer {
			size = pm.fastPer
		}
		fast += size
	}
	if tier == TierFast {
		return fast
	}
	return len(pm.pages) - fast
}

// TierFreeFrames returns the number of currently free frames in the given
// tier.  Buddy pools answer from the maintained gauge; LIFO pools scan
// their free stack.
func (pm *PhysMem) TierFreeFrames(tier int) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.tierFreeLocked(tier)
}

func (pm *PhysMem) tierFreeLocked(tier int) int {
	if pm.fastPer <= 0 {
		if tier != TierFast {
			return 0
		}
		if pm.buddy {
			return pm.freePages
		}
		return len(pm.free)
	}
	fast := 0
	if pm.buddy {
		for _, n := range pm.freeFast {
			fast += n
		}
		if tier == TierFast {
			return fast
		}
		return pm.freePages - fast
	}
	for _, p := range pm.free {
		if pm.TierOfFrame(p.Frame()) == TierFast {
			fast++
		}
	}
	if tier == TierFast {
		return fast
	}
	return len(pm.free) - fast
}

// pickLowestTierLocked finds the lowest-addressed free block on socket s
// whose frames lie in the given tier; maxOrder > 0 restricts the scan to
// orders below it.  Fast frames are each socket's low address prefix, so
// for the fast tier the heap top decides per order; the slow tier scans
// heap entries.  Returns order -1 when the tier has no eligible block on
// this socket.  Caller holds pm.mu; buddy pools only.
func (pm *PhysMem) pickLowestTierLocked(s, tier, maxOrder int) (start uint64, order int) {
	order = -1
	lim := len(pm.orders[s])
	if maxOrder > 0 && maxOrder < lim {
		lim = maxOrder
	}
	for k := 0; k < lim; k++ {
		h := &pm.orders[s][k]
		if h.len() == 0 {
			continue
		}
		if tier == TierFast {
			if b := h.starts[0]; pm.TierOfFrame(b) == TierFast && (order < 0 || b < start) {
				start, order = b, k
			}
			continue
		}
		for _, bs := range h.starts {
			if pm.TierOfFrame(bs) != tier {
				continue
			}
			if order < 0 || bs < start {
				start, order = bs, k
			}
		}
	}
	return start, order
}

// tierAllocOneLocked picks the lowest-addressed free frame of the given
// tier, preferring socket pref and falling through the rest ascending.
// Reservation steering applies exactly as in buddyAllocOneLocked — a
// protected socket's scan is restricted to sub-reservation blocks — but
// with no spill pass: a tier whose only free frames sit in protected
// reserved spans reports ErrNoMemory instead of splitting one.  Tier
// placement is an optimization; silently destroying superpage stock for
// it would trade a surcharge for a reservation starvation.  Caller holds
// pm.mu; buddy tiered pools only.
func (pm *PhysMem) tierAllocOneLocked(pref, tier int) (pg *Page, served int) {
	served = -1
	pm.eachSocketFrom(pref, func(s int) bool {
		best, bestK := pm.pickLowestTierLocked(s, tier, 0)
		if bestK < 0 {
			return true
		}
		if pm.protectedLocked(s) && bestK >= pm.reservOrder {
			sb, sk := pm.pickLowestTierLocked(s, tier, pm.reservOrder)
			if sk < 0 {
				return true // only protected blocks hold this tier here: decline
			}
			best, bestK = sb, sk
			pm.reservSteers++
		}
		pg = pm.takeOneAtLocked(s, best, bestK)
		served = s
		return false
	})
	return pg, served
}

// TierTarget allocates one destination page for a tier migration: the
// lowest-addressed free frame in the given tier, preferring the given
// socket.  It is MigrationTarget's tier-scoped sibling — the caller copies
// a resident page's bytes into it, MigratePage-swaps the frames, and frees
// the doomed handle.  Reservation steering applies (tierAllocOneLocked):
// a tier whose only free frames sit in protected reserved spans counts as
// full rather than splitting one.  ErrNoMemory means the tier is full and
// the caller should demote something first (or abandon the move).
func (pm *PhysMem) TierTarget(tier, pref int) (*Page, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if !pm.buddy || pm.fastPer <= 0 {
		return nil, ErrNoMemory
	}
	pg, served := pm.tierAllocOneLocked(pref, tier)
	if pg == nil {
		return nil, ErrNoMemory
	}
	pm.countHomeLocked(pref, served, 1)
	pm.allocs.Add(1)
	return pg, nil
}
