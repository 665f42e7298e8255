package sfbuf

import (
	"sync/atomic"

	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file implements defragmentation by migration: the active half of
// the superpage contiguity story (the passive half is the buddy
// allocator's reservation watermark).  Reservations slow the erosion of
// intact superpage-span blocks; the Migrator rebuilds them, by evacuating
// the few resident pages out of nearly-free spans into existing fragments
// elsewhere and letting the buddy coalescing recover the span as one
// intact block.
//
// Correctness rests on shard-scoped exclusion plus two handoffs:
//
//   - Exclusion by the locks frame-keyed state already has.  A page's
//     frame changes only inside vm.MigratePage, and the Migrator calls it
//     holding every shard lock and then the run pool's (lockAll), from a
//     block's quiescence check through its one shootdown flush.  Mapping
//     paths lock the shard of the frame they read and re-read the frame
//     under that lock (lockPage), so each of them either runs entirely
//     before a block or entirely after it, on the page's new shard; the
//     run path reads frames only under the run pool's lock, where a
//     checked-out run's frames are also marked live.  No mapping can
//     revive a remapped entry or parked window before its stale TLB
//     entries are shot down.  Nothing here protects direct page access:
//     a client reading or writing a held page's storage without a mapping
//     reference races the copy by contract (pages are only evacuated when
//     quiescent — unwired, not in a checked-out run, hash reference count
//     zero — and a quiescent page's owner has promised not to touch its
//     bytes bare-handed).
//
//   - vm.MigratePage's atomicity.  The copy-and-swap validates, under the
//     pool lock, that the source is still a registered, unwired, resident
//     page — so a client Free racing the evacuation (the vm layer takes
//     none of the cache's locks) loses cleanly: MigratePage returns false
//     and the frame is simply no longer resident.
//
//   - The honest-TLB handoff.  MigratePage leaves the doomed destination
//     handle holding the OLD frame with a byte-identical copy, so any TLB
//     entry still naming the old frame keeps reading correct bytes.  The
//     Migrator queues every invalidation the old translations owe, issues
//     ONE accumulated shootdown flush per evacuated block, and only then
//     frees the doomed handles (freeing zeroes them — an access through a
//     translation that should have been shot down reads zeroes, and the
//     byte oracles catch the bug).
type Migrator struct {
	c    *shardedCache
	phys *vm.PhysMem

	span        int // frames per target block (the superpage span)
	spanOrder   int
	maxResident int // occupancy ceiling for a span to be worth evacuating

	rounds, moved, freed, skipped atomic.Uint64
	hashRemaps, winRemaps, forced atomic.Uint64
	tierMoved                     atomic.Uint64
	cycles                        atomic.Uint64
}

// MigrateConfig tunes the Migrator.  Zero values select defaults.
type MigrateConfig struct {
	// Span is the contiguity target in frames; it must be a power of two.
	// Zero selects the superpage span (pmap.SuperpagePages).
	Span int
	// MaxResident is the densest span an evacuation will take on.  Zero
	// selects Span/4: beyond a quarter occupancy the copy bill outweighs
	// the reclaimed block.
	MaxResident int
}

// MigrationStats is a snapshot of the Migrator's counters.
type MigrationStats struct {
	// Rounds counts MigrateBlocks calls; PagesMoved, copied pages;
	// BlocksFreed, spans whose evacuation fully coalesced; BlocksSkipped,
	// candidates given up on (non-quiescent resident, no target frame, or
	// residual occupancy after the pass).
	Rounds, PagesMoved, BlocksFreed, BlocksSkipped uint64
	// HashRemaps and WindowRemaps count mappings rewritten in place —
	// inactive cache entries and parked run-window slots, respectively;
	// ForcedLaunders counts parked windows torn down instead because most
	// of their extent sat inside the victim span.
	HashRemaps, WindowRemaps, ForcedLaunders uint64
	// TierMoves counts pages migrated between physical-memory tiers by
	// MoveToTier (promotions and demotions both; the kernel's tier keeper
	// splits the direction).
	TierMoves uint64
	// CyclesCharged is the total simulated cycles MigrateBlocks consumed.
	CyclesCharged uint64
}

// NewMigrator builds a Migrator for the mapper, or nil when the mapper
// cannot migrate: only the i386 sharded engine over a buddy physical pool
// participates (the global-lock figure engines stay untouched so the paper
// reproductions keep their exact behaviour).
func NewMigrator(m Mapper, cfg MigrateConfig) *Migrator {
	v, ok := m.(*I386)
	if !ok {
		return nil
	}
	sc, ok := v.c.(*shardedCache)
	if !ok {
		return nil
	}
	phys := sc.m.Phys
	if phys == nil || !phys.PhysStats().Buddy {
		return nil
	}
	span := cfg.Span
	if span <= 0 {
		span = pmap.SuperpagePages
	}
	if span&(span-1) != 0 {
		return nil
	}
	maxRes := cfg.MaxResident
	if maxRes <= 0 {
		maxRes = span / 4
	}
	order := 0
	for 1<<order < span {
		order++
	}
	return &Migrator{c: sc, phys: phys, span: span, spanOrder: order, maxResident: maxRes}
}

// Span returns the configured contiguity target in frames.
func (g *Migrator) Span() int { return g.span }

// lockAll takes the Migrator's exclusion: every shard lock in index
// order, then the run pool's.  No other path holds two of these at once,
// so the order cannot deadlock; clean-stock, pool and lower-layer locks
// may be taken under it, exactly as under any one shard lock.
func (c *shardedCache) lockAll() {
	for _, s := range c.shards {
		s.mu.Lock()
	}
	c.runs.mu.Lock()
}

func (c *shardedCache) unlockAll() {
	c.runs.mu.Unlock()
	for _, s := range c.shards {
		s.mu.Unlock()
	}
}

// quiescentLocked reports whether the page at frame f may move: unwired,
// in no checked-out run, and unreferenced in the hash.  Caller holds
// lockAll.
func (g *Migrator) quiescentLocked(pg *vm.Page, f uint64) bool {
	if pg == nil || pg.Wired() || g.c.runs.resident[f] > 0 {
		return false
	}
	b := g.c.table[f]
	return b == nil || b.ref == 0
}

// MigrateBlocks runs one defragmentation round: evacuate up to maxBlocks
// nearly-free spans, cheapest first, and return how many fully coalesced.
// Each block is evacuated under lockAll and its remapping debt retired in
// one shootdown flush; the round's one ChargeLock stands for the
// exclusion.
func (g *Migrator) MigrateBlocks(ctx *smp.Context, maxBlocks int) int {
	if g == nil || maxBlocks <= 0 {
		return 0
	}
	start := ctx.CPU().Cycles()
	ctx.ChargeLock()
	freed := 0
	// Over-fetch candidates: some will be skipped for non-quiescent
	// residents, and a skip must not end the round early.
	for _, cand := range g.phys.MigrationCandidates(g.span, g.maxResident, maxBlocks*4) {
		if freed >= maxBlocks {
			break
		}
		if g.evacuate(ctx, cand) {
			freed++
		} else {
			g.skipped.Add(1)
		}
	}
	g.rounds.Add(1)
	g.cycles.Add(uint64(ctx.CPU().Cycles() - start))
	return freed
}

// evacuate moves every resident page out of the candidate span and reports
// whether the span fully coalesced.
func (g *Migrator) evacuate(ctx *smp.Context, cand vm.MigrationCandidate) bool {
	lo, hi := cand.Start, cand.Start+uint64(cand.Span)
	g.c.lockAll()
	frames := g.phys.ResidentFrames(lo, cand.Span)

	// Quiescence check: every resident must be unwired, outside any
	// checked-out run, and unreferenced in the cache.  One hot page
	// disqualifies the whole span — a partial evacuation frees nothing.
	for _, f := range frames {
		if !g.quiescentLocked(g.phys.PageByFrame(f), f) {
			g.c.unlockAll()
			return false
		}
	}

	// Parked windows mostly inside the span: one teardown pass beats
	// remapping most of their slots one by one, and it frees the windows
	// for any future extent.  (Shootdowns queue; the block flush below
	// retires them.)
	queued := false
	if n := g.c.runs.launderSpanLocked(ctx, lo, hi); n > 0 {
		g.forced.Add(uint64(n))
		queued = true
	}

	var doomed []*vm.Page
	for _, f := range frames {
		pg := g.phys.PageByFrame(f)
		dst, err := g.phys.MigrationTarget(cand.Socket, g.spanOrder, lo, hi)
		if err != nil {
			break // no fragment left to absorb an evacuee: abandon
		}
		ok, moved, evicted := g.move(ctx, pg, f, dst)
		queued = queued || evicted
		if !ok {
			break // a REFERENCED entry on a free frame: client bug upstream
		}
		if moved {
			doomed = append(doomed, dst)
		}
	}
	g.finish(ctx, doomed, queued)
	g.moved.Add(uint64(len(doomed)))
	if len(g.phys.ResidentFrames(lo, cand.Span)) > 0 {
		return false
	}
	g.freed.Add(1)
	return true
}

// move migrates pg from frame f into dst and rewrites every mapping of
// the old frame: the inactive hash entry and any parked window slots.
// The destination frame may carry a STALE inactive cache entry from a
// prior life (lazy teardown outlives the page's free); it is evicted
// first, since after the swap its hash key would no longer match its
// page's frame (evicted reports a teardown the block flush owes).  ok is
// false, and dst freed, when that entry is still referenced; moved is
// false, and dst freed, when the owner freed or wired pg since the scan —
// a page that no longer needs moving.  Caller holds lockAll.
func (g *Migrator) move(ctx *smp.Context, pg *vm.Page, f uint64, dst *vm.Page) (ok, moved, evicted bool) {
	ok, evicted = g.evictStale(ctx, dst.Frame())
	if !ok {
		g.phys.Free(dst)
		return false, false, evicted
	}
	ctx.ChargeBytesAt(ctx.Cost().CopyPerByte, vm.PageSize, dst.Frame())
	if !g.phys.MigratePage(pg, dst) {
		g.phys.Free(dst)
		return true, false, evicted
	}
	g.remapHash(ctx, pg, f)
	if n := g.c.runs.remapParkedLocked(ctx, pg, f); n > 0 {
		g.winRemaps.Add(uint64(n))
	}
	return true, true, evicted
}

// finish ends a block: ONE flush for its whole debt — remaps, forced
// launders, stale evictions — before lockAll is released (stale VAs get
// reused the moment mapping traffic resumes), and only after it may the
// doomed handles — still holding byte-identical copies at the old frames
// for any straggler TLB entry — be freed and zeroed.
func (g *Migrator) finish(ctx *smp.Context, doomed []*vm.Page, queued bool) {
	if len(doomed) > 0 || queued {
		ctx.FlushShootdowns()
	}
	g.c.unlockAll()
	for _, d := range doomed {
		g.phys.Free(d)
	}
}

// evictStale removes a leftover unreferenced cache entry keyed at frame,
// tearing its mapping down (shootdowns queued, flushed with the block) and
// restocking its buffer clean.  ok is false when the entry is still
// referenced — the frame cannot be used as a migration target; evicted
// reports whether an entry was actually torn down (the caller owes a
// flush).  Caller holds lockAll; the shard lock it stands in for is still
// charged.
func (g *Migrator) evictStale(ctx *smp.Context, frame uint64) (ok, evicted bool) {
	c := g.c
	si := c.shardIdx(frame)
	c.chargeShardLock(ctx, si)
	s := c.shards[si]
	b := c.table[frame]
	if b == nil {
		return true, false
	}
	if b.ref > 0 {
		return false, false
	}
	c.table[frame] = nil
	s.valid--
	s.inactive.remove(b)
	c.teardown(ctx, b)
	b.cpumask = c.m.AllCPUs()
	c.putClean(ctx, b)
	return true, true
}

// remapHash rewrites the inactive cache entry that mapped the page at its
// old frame, if any: re-enter the translation (the page now answers with
// its new frame), queue the old translation's invalidation against the
// CPUs that may have cached it, and re-key the entry onto the new frame's
// shard — so the next Alloc of the page is still a hit.  Caller holds
// lockAll; the two shard locks it stands in for are still charged.
func (g *Migrator) remapHash(ctx *smp.Context, pg *vm.Page, old uint64) {
	c := g.c
	osi := c.shardIdx(old)
	c.chargeShardLock(ctx, osi)
	b := c.table[old]
	if b == nil {
		return
	}
	os := c.shards[osi]
	c.table[old] = nil
	os.valid--
	os.inactive.remove(b)
	vpn := pmap.VPN(b.kva)
	_, oldAcc := c.pm.KEnter(ctx, b.kva, pg)
	if oldAcc || c.ablate&AblateAccessedBit != 0 {
		mask := b.tlbmask
		if mask.Has(ctx.CPUID()) {
			ctx.InvalidateLocal(vpn)
			mask = mask.Clear(ctx.CPUID())
		}
		ctx.QueueShootdown(mask, vpn)
	}
	// Post-flush no TLB holds this VPN at all: the rewritten mapping
	// starts life untainted, like a revival from clean.
	b.tlbmask = 0
	nf := pg.Frame()
	nsi := c.shardIdx(nf)
	c.chargeShardLock(ctx, nsi)
	ns := c.shards[nsi]
	c.install(ns, nf, b)
	ns.inactive.pushTail(b)
	g.hashRemaps.Add(1)
}

// Stats snapshots the Migrator's counters.  Nil-safe (a kernel without
// migration reports zeroes).
func (g *Migrator) Stats() MigrationStats {
	if g == nil {
		return MigrationStats{}
	}
	return MigrationStats{
		Rounds:         g.rounds.Load(),
		PagesMoved:     g.moved.Load(),
		BlocksFreed:    g.freed.Load(),
		BlocksSkipped:  g.skipped.Load(),
		HashRemaps:     g.hashRemaps.Load(),
		WindowRemaps:   g.winRemaps.Load(),
		ForcedLaunders: g.forced.Load(),
		TierMoves:      g.tierMoved.Load(),
		CyclesCharged:  g.cycles.Load(),
	}
}
