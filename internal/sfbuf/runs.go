package sfbuf

import (
	"sort"
	"sync"

	"sfbuf/internal/cycles"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file implements the run window pool: the VA-window side of the
// contiguous-run fast path.  A window is a multi-page reservation from
// the kernel virtual-address arena into which pmap.KEnterRun installs a
// whole run's translations in one pass.  The pool exists to amortize
// three costs across many runs:
//
//   - Reservation.  A fresh window pays the general-purpose KVA
//     allocator (the cost the original kernel pays per mapping); a
//     recycled window pays one pool lock.  Windows are cached per size
//     class, with one trailing guard page each, so an off-the-end access
//     faults instead of landing in a neighbor.  Windows of
//     superpage-covering sizes are reserved aligned so promotion can
//     fire.
//
//   - Reinstallation.  A freed window is NOT torn down immediately: it
//     parks on the dirty list with its translations still installed,
//     keyed by the frame extent it maps (the page set).  An AllocRun
//     over the same extent REVIVES the parked window exactly as the
//     mapping cache revives an inactive buffer: no PTE writes, no
//     page-table pass, no invalidation debt — the window's translations
//     (and any TLB entries caching them) are still current because
//     nothing changed them.  Repeated extents thus get cache-style
//     reuse while cold extents keep the one-pass install.
//
//   - Teardown invalidation.  A parked window's eventual teardown —
//     which pages were accessed over its parked lives, and which CPUs'
//     TLBs (the accumulated cpumask) may cache them — is deferred until
//     the pool needs clean stock.  Debt is retired by LAUNDERING: when
//     enough dirty windows accumulate (runLaunderBatch), one pass
//     removes every parked window's translations and one queued
//     shootdown flush retires all their invalidations in a single
//     ranged IPI round, after which all of them are reusable for any
//     extent.  This is the sharded cache's clean-buffer batching applied
//     at window granularity: one IPI round per runLaunderBatch windows
//     instead of one per run.
//
// Soundness is the lazy-teardown argument of Section 4.2 lifted to
// window granularity.  While a window is parked its PTEs are unchanged,
// so any TLB entry for it is CURRENT, not stale — and nothing hands out
// its addresses, so nothing reads through it.  A revive resurrects the
// identical translations, which are still correct for the identical
// page set.  Staleness can only arise when a window is reused for a
// DIFFERENT extent, and that only happens from the clean list, which a
// window reaches strictly after the laundering pass that removed its
// translations and flushed every TLB that could cache them.

const (
	// runGuardPages is the reserved-but-never-mapped tail of each window.
	runGuardPages = 1
	// runLaunderBatch is how many dirty windows one laundering round
	// flushes — and thus how many runs share one teardown IPI round.  It
	// is also the depth of the page-set window cache: a parked window can
	// only be revived until a laundering round recycles it.
	runLaunderBatch = 8
)

// DefaultLaunderAge bounds how long a window may stay parked, in simulated
// cycles on the machine clock (smp.Machine.Now).  Fewer than
// runLaunderBatch parked windows never trip the count-threshold launder, so
// without an age bound a quiet kernel would pin their frames, address
// space, and accumulated TLB masks forever.  The bound is enforced on the
// synchronous alloc/free path (so it holds even with no daemon running)
// and by the background daemon's pass (so it holds even with no further
// allocations).  Large enough that revival-economy workloads never trip it
// between back-to-back reuses; small enough that a lull of a few million
// cycles launders everything parked.
const DefaultLaunderAge cycles.Cycles = 2 << 20

// runWindow is one reserved VA window.  While a run holds it, live is
// that run's copy of its pages.  Between a FreeRun and the next
// laundering round the window is PARKED: frames records the extent whose
// translations are still installed (the revive key) and mask accumulates
// the CPUs that may cache those translations across the window's parked
// lives.
type runWindow struct {
	base  uint64
	pages int
	// home is the arena region (= socket, under NUMA homing) the window's
	// address space was reserved from; 0 on a single-region arena.
	home int

	live   []*vm.Page // checked out: the holding run's pages (Run.pages)
	frames []uint64   // parked: the installed frame extent, revive key
	seq    uint64     // parked: when frames was last set (runPool.keySeq)
	mask   smp.CPUSet // parked: union of the lives' TLB masks
	accScr []bool     // KRemoveRun scratch, reused across lives

	// parkedAt is the machine-clock time of the most recent park; the
	// age-bound laundering compares it against runPool.launderAge.
	parkedAt cycles.Cycles
}

// RunWindowStats counts run-window pool events and reports the pool's
// current capacity split.  The counters are cumulative; the *Pages and
// LargestFreeRun fields are gauges recomputed at snapshot time, so they
// reflect frees and coalesces, not just the last allocation.
type RunWindowStats struct {
	// Reserved counts fresh window reservations from the KVA arena.
	Reserved uint64
	// Reuses counts runs served by a recycled (laundered, clean) window.
	Reuses uint64
	// Revives counts runs served by a parked dirty window whose installed
	// extent matched the request — the page-set cache hit: no PTE writes,
	// no shootdown debt.
	Revives uint64
	// Launders counts laundering rounds and Laundered the dirty windows
	// those rounds made reusable; Laundered/Launders is the teardown
	// coalescing factor the pool earns.
	Launders  uint64
	Laundered uint64
	// AgedLaunders counts laundering rounds triggered by the parked-window
	// age bound rather than the count threshold, and AgedWindows the
	// windows those rounds retired.  Age-triggered rounds launder fewer
	// than runLaunderBatch windows by design: they trade coalescing for a
	// bound on how long a parked window pins its frames and VA.
	AgedLaunders uint64
	AgedWindows  uint64
	// Trimmed counts clean windows whose address space was returned to the
	// KVA arena by the background daemon's trim pass (the pool's
	// contribution to address-space coalescing).
	Trimmed uint64

	// CleanPages is the usable-page total of windows on the clean lists:
	// torn down, flushed, reusable for any extent.
	CleanPages int
	// DirtyPages is the usable-page total of parked windows: still
	// mapped, revivable for their exact extent only.  Parked windows are
	// NOT free capacity — they hold both address space and installed
	// translations until a laundering round — so they are deliberately
	// excluded from CleanPages and from the arena's free ranges.
	DirtyPages int
	// LargestFreeRun is the arena's longest free span in pages — the
	// biggest fresh window reservation that could currently succeed.  It
	// is recomputed from the arena's live free list at snapshot time, so
	// it tracks frees and coalesces as well as allocations.
	LargestFreeRun int
}

// runPool caches reserved VA windows: clean stock per size class, parked
// dirty windows keyed by frame extent for revival.
type runPool struct {
	pm    *pmap.Pmap
	arena *kva.Arena
	// homed enables NUMA homing: fresh windows are reserved from the
	// caller's socket's arena region and clean stock is popped
	// home-socket-first.  Off (the default), the pool behaves exactly as
	// the flat single-region pool.
	homed bool
	// forceDebt reports whether the accessed-bit optimization is ablated:
	// laundering then owes an invalidation for every page, accessed or
	// not.
	forceDebt func() bool

	mu    sync.Mutex
	clean map[int][]*runWindow
	// dirty holds parked windows in park order (oldest first), so the
	// windows past the age bound are always a prefix.  keySeq orders
	// the setting of their revive keys (parks and migration rekeys): a
	// revive takes the matching window keyed first.
	dirty  []*runWindow
	keySeq uint64
	// launderAge is the parked-window age bound on the machine clock;
	// 0 disables age-triggered laundering (count threshold only).
	launderAge cycles.Cycles
	// resident counts, per frame, the checked-out (live) runs currently
	// mapping it, indexed by frame like the cache's table.  The migrator
	// consults it: a frame in a live run has its translations in active
	// use and must not be evacuated.  Parked windows' frames are
	// deliberately NOT here — those are migratable in place or
	// force-launderable.
	resident []int32
	stats    RunWindowStats
	// led is the run path's share of the cache statistics (Allocs, Hits,
	// Misses, Frees and the Run* counters), counted where get and put
	// hold mu anyway.
	led      Stats
	scrVpns  []uint64 // laundering scratch
	scrMasks []smp.CPUSet
}

func newRunPool(pm *pmap.Pmap, arena *kva.Arena, frames int) *runPool {
	return &runPool{
		pm:         pm,
		arena:      arena,
		forceDebt:  func() bool { return false },
		clean:      make(map[int][]*runWindow),
		resident:   make([]int32, frames),
		launderAge: DefaultLaunderAge,
	}
}

// markLocked adds d to the live-run count of each page's frame: +1 marks
// a checked-out run's frames migration-ineligible, -1 releases them when
// the run parks.  Caller holds p.mu.
func (p *runPool) markLocked(pages []*vm.Page, d int) {
	for _, pg := range pages {
		p.resident[pg.Frame()] += int32(d)
	}
}

// setLaunderAge overrides the parked-window age bound; 0 disables it.
func (p *runPool) setLaunderAge(age cycles.Cycles) {
	p.mu.Lock()
	p.launderAge = age
	p.mu.Unlock()
}

// get returns a window for the requested extent and marks the extent's
// frames live in the same hold of p.mu as the revive lookup: the
// Migrator checks liveness under p.mu, so from here to the run's put no
// frame the window is keyed or installed on can move.  revived reports
// that the window's translations are ALREADY the extent's — the caller
// must skip the install pass.  Preference order: revive a parked window
// for this exact extent (the page-set cache hit), recycle clean stock,
// launder when enough debt has parked to amortize the flush, reserve
// fresh address space otherwise.
func (p *runPool) get(ctx *smp.Context, pages []*vm.Page) (w *runWindow, revived bool, err error) {
	n := len(pages)
	sock := -1
	if p.homed {
		sock = ctx.Socket()
	}
	ctx.ChargeLock()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.markLocked(pages, 1)
	// The age bound wins over revival: a window parked past launderAge is
	// retired even if this very request would have revived it, so no
	// window stays revivable-parked forever.
	if p.launderAge > 0 && len(p.dirty) > 0 {
		p.launderAgedLocked(ctx, ctx.Machine().Now())
	}
	if w = p.reviveLocked(pages); w != nil {
		revived = true
	} else if w = p.popCleanLocked(n, sock); w == nil && len(p.dirty) >= runLaunderBatch {
		p.launderLocked(ctx)
		w = p.popCleanLocked(n, sock)
	}
	if w == nil {
		w, err = p.reserveLocked(ctx, n)
	}
	if err != nil {
		// Arena exhausted: launder everything (freeing debt is
		// prerequisite to returning address space) and give back every
		// cached window, then retry once.
		p.launderLocked(ctx)
		if w = p.popCleanLocked(n, sock); w != nil {
			err = nil
		} else {
			// No stock in our size: give every cached window's address
			// space back, smallest class first — sorted, so the recovery
			// path frees the same ranges in the same order on every run
			// and replay stays exact.
			sizes := make([]int, 0, len(p.clean))
			for size := range p.clean {
				sizes = append(sizes, size)
			}
			sort.Ints(sizes)
			for _, size := range sizes {
				for _, w := range p.clean[size] {
					p.arena.Free(w.base)
				}
				delete(p.clean, size)
			}
			w, err = p.reserveLocked(ctx, n)
		}
	}
	if err != nil {
		p.markLocked(pages, -1)
		return nil, false, err
	}
	l := &p.led
	l.Allocs += uint64(n)
	l.RunAllocs++
	l.RunPages += uint64(n)
	if revived {
		l.Hits += uint64(n)
		l.RunRevives++
	} else {
		l.Misses += uint64(n)
		l.RunReviveMisses++
	}
	return w, revived, nil
}

// reviveLocked looks the requested extent up among the parked windows
// and, on an exact frame-sequence match, removes the window from the
// dirty list and returns it still mapped.  Of several parked windows for
// the same extent it takes the one keyed first.  Caller holds p.mu.
func (p *runPool) reviveLocked(pages []*vm.Page) *runWindow {
	if len(p.dirty) == 0 {
		return nil
	}
	pick := -1
	for di, w := range p.dirty {
		if (pick < 0 || w.seq < p.dirty[pick].seq) && framesMatch(w.frames, pages) {
			pick = di
		}
	}
	if pick < 0 {
		return nil
	}
	w := p.dirty[pick]
	p.dirty = append(p.dirty[:pick], p.dirty[pick+1:]...)
	p.stats.Revives++
	return w
}

// rekeyLocked stamps a parked window whose frames were just set.
// Caller holds p.mu.
func (p *runPool) rekeyLocked(w *runWindow) {
	p.keySeq++
	w.seq = p.keySeq
}

func framesMatch(frames []uint64, pages []*vm.Page) bool {
	if len(frames) != len(pages) {
		return false
	}
	for i, f := range frames {
		if pages[i].Frame() != f {
			return false
		}
	}
	return true
}

// popCleanLocked pops a clean window of the given size, preferring one
// whose address space is homed on socket sock (newest first, so the
// preference degrades to the plain tail pop when every window matches).
// sock < 0 — the non-homed pool — is exactly the old tail pop, which
// keeps the flat configurations bit-identical.
func (p *runPool) popCleanLocked(pages, sock int) *runWindow {
	ws := p.clean[pages]
	if len(ws) == 0 {
		return nil
	}
	pick := len(ws) - 1
	if sock >= 0 && ws[pick].home != sock {
		for i := pick - 1; i >= 0; i-- {
			if ws[i].home == sock {
				pick = i
				break
			}
		}
	}
	w := ws[pick]
	p.clean[pages] = append(ws[:pick], ws[pick+1:]...)
	p.stats.Reuses++
	return w
}

// reserveLocked takes a fresh window from the arena, superpage-aligned
// when the size can cover an aligned superpage chunk, with the trailing
// guard.  Under NUMA homing the reservation prefers the caller's socket's
// arena region (spilling to the others only when it is exhausted) and the
// window records which region it landed in.  Caller holds p.mu.
func (p *runPool) reserveLocked(ctx *smp.Context, pages int) (*runWindow, error) {
	ctx.Charge(ctx.Cost().KVAAlloc)
	align := 1
	if pages >= pmap.SuperpagePages {
		align = pmap.SuperpagePages
	}
	var (
		base uint64
		err  error
	)
	if p.homed {
		base, err = p.arena.AllocWindowOn(ctx.Socket(), pages, runGuardPages, align)
	} else {
		base, err = p.arena.AllocWindow(pages, runGuardPages, align)
	}
	if err != nil {
		return nil, err
	}
	p.stats.Reserved++
	return &runWindow{base: base, pages: pages, home: p.arena.RegionOf(base)}, nil
}

// put parks a freed window on the dirty list WITH its translations still
// installed, keyed by the extent it maps, so a repeat AllocRun over the
// same page set can revive it.  mask is the freeing run's TLB mask; it
// accumulates into the window's parked mask so the eventual laundering
// shoots down every CPU that any parked life could have tainted.  The
// run's frames stay marked live until the window is parked under their
// current values: released earlier, a page could migrate in between and
// the window would record a frame its PTEs do not map.
func (p *runPool) put(ctx *smp.Context, w *runWindow, pages []*vm.Page, mask smp.CPUSet) {
	ctx.ChargeLock()
	p.mu.Lock()
	w.frames = w.frames[:0]
	for _, pg := range pages {
		w.frames = append(w.frames, pg.Frame())
	}
	p.markLocked(pages, -1)
	p.led.Frees += uint64(len(pages))
	p.led.RunFrees++
	w.mask |= mask
	w.parkedAt = ctx.Machine().Now()
	p.rekeyLocked(w)
	p.dirty = append(p.dirty, w)
	// Parking is also a chance to retire windows that aged out while the
	// pool sat under the count threshold (the just-parked window has age
	// zero and always survives).
	if p.launderAge > 0 && len(p.dirty) > 1 {
		p.launderAgedLocked(ctx, w.parkedAt)
	}
	p.mu.Unlock()
}

// launderLocked tears down every parked window — one page-table pass per
// window reporting which pages were accessed — and retires the whole
// batch's invalidation debt through the per-CPU shootdown queue in ONE
// forced flush, then moves the windows to their clean lists, reusable
// for any extent.  Caller holds p.mu.
func (p *runPool) launderLocked(ctx *smp.Context) {
	p.launderSomeLocked(ctx, len(p.dirty))
}

// launderSomeLocked launders the n oldest parked windows (the dirty-list
// prefix) in one round: one page-table pass per window, all invalidation
// debt retired through ONE forced shootdown flush.  Caller holds p.mu.
func (p *runPool) launderSomeLocked(ctx *smp.Context, n int) {
	if n > len(p.dirty) {
		n = len(p.dirty)
	}
	if n <= 0 {
		return
	}
	force := p.forceDebt()
	batch := p.dirty[:n]
	for _, w := range batch {
		p.launderWindowLocked(ctx, w, force)
	}
	ctx.FlushShootdowns()
	p.stats.Launders++
	p.stats.Laundered += uint64(n)
	for _, w := range batch {
		p.clean[w.pages] = append(p.clean[w.pages], w)
	}
	p.dirty = append(p.dirty[:0], p.dirty[n:]...)
}

// launderWindowLocked retires ONE parked window's deferred teardown:
// remove its translations in one page-table pass, and queue the
// invalidations its accessed pages owe against the window's accumulated
// mask.  The shootdown FLUSH is the
// caller's: batch launderers flush once per round, the migrator once per
// evacuated block.  The window is left frame-less but still on p.dirty;
// the caller moves it to its clean list.  Caller holds p.mu.
func (p *runPool) launderWindowLocked(ctx *smp.Context, w *runWindow, force bool) {
	w.accScr = p.pm.KRemoveRun(ctx, w.base, w.pages, w.accScr[:0])
	vpn0 := pmap.VPN(w.base)
	p.scrVpns, p.scrMasks = p.scrVpns[:0], p.scrMasks[:0]
	for i, a := range w.accScr {
		if a || force {
			p.scrVpns = append(p.scrVpns, vpn0+uint64(i))
			p.scrMasks = append(p.scrMasks, w.mask)
		}
	}
	ctx.QueueShootdownBatch(p.scrMasks, p.scrVpns)
	w.frames = w.frames[:0]
	w.mask = 0
}

// launderSpan force-launders every parked window whose installed extent is
// mostly (half or more) inside the victim frame span [lo, hi): when an
// evacuation would have to remap most of a window's pages one by one, one
// teardown pass is cheaper and frees the window for any extent.  Windows
// only lightly touching the span are left parked for remapParked's
// in-place migration.  Shootdowns are queued, NOT flushed — the migrator
// owns the one-flush-per-block discipline.  Returns the windows laundered.
// Caller holds p.mu (the Migrator's exclusion); the lock round trip it
// stands for is still charged here.
func (p *runPool) launderSpanLocked(ctx *smp.Context, lo, hi uint64) int {
	ctx.ChargeLock()
	force := p.forceDebt()
	kept := p.dirty[:0]
	laundered := 0
	for _, w := range p.dirty {
		in := 0
		for _, f := range w.frames {
			if f >= lo && f < hi {
				in++
			}
		}
		if in == 0 || 2*in < w.pages {
			kept = append(kept, w)
			continue
		}
		p.launderWindowLocked(ctx, w, force)
		p.clean[w.pages] = append(p.clean[w.pages], w)
		laundered++
	}
	p.dirty = kept
	if laundered > 0 {
		p.stats.Launders++
		p.stats.Laundered += uint64(laundered)
	}
	return laundered
}

// remapParked migrates frame old in place wherever a parked window maps
// it: the page pg (already swapped to its new frame) is re-entered at the
// window slot, the stale translation's invalidation is queued against the
// window's accumulated mask, and the window's revive key is rebuilt — so a
// repeat AllocRun over the migrated page set still revives with zero PTE
// writes.  Shootdowns are queued, not flushed (the migrator flushes once
// per block).  Returns the slots remapped.  Caller holds p.mu, and the
// lock round trip is charged here, as in launderSpanLocked.
func (p *runPool) remapParkedLocked(ctx *smp.Context, pg *vm.Page, old uint64) int {
	ctx.ChargeLock()
	force := p.forceDebt()
	self := ctx.CPUID()
	remapped := 0
	for _, w := range p.dirty {
		for i, f := range w.frames {
			if f != old {
				continue
			}
			_, oldAcc := p.pm.KEnter(ctx, w.base+uint64(i)*vm.PageSize, pg)
			if oldAcc || force {
				vpn := pmap.VPN(w.base) + uint64(i)
				mask := w.mask
				if mask.Has(self) {
					ctx.InvalidateLocal(vpn)
					mask = mask.Clear(self)
				}
				ctx.QueueShootdown(mask, vpn)
			}
			w.frames[i] = pg.Frame()
			// The window now revives for the migrated frame sequence,
			// not the pre-migration one.
			p.rekeyLocked(w)
			remapped++
		}
	}
	return remapped
}

// launderAgedLocked launders the parked windows whose age at time now
// meets the pool's age bound.  The dirty list is in park order, so they
// form a prefix.  Caller holds p.mu.  Returns how many were laundered.
func (p *runPool) launderAgedLocked(ctx *smp.Context, now cycles.Cycles) int {
	if p.launderAge <= 0 {
		return 0
	}
	cut := 0
	for cut < len(p.dirty) && now-p.dirty[cut].parkedAt >= p.launderAge {
		cut++
	}
	if cut == 0 {
		return 0
	}
	p.stats.AgedLaunders++
	p.stats.AgedWindows += uint64(cut)
	p.launderSomeLocked(ctx, cut)
	return cut
}

// launderAged runs an age-bound laundering round outside the allocation
// path — the background daemon's entry point.
func (p *runPool) launderAged(ctx *smp.Context) int {
	ctx.ChargeLock()
	p.mu.Lock()
	n := 0
	if len(p.dirty) > 0 {
		n = p.launderAgedLocked(ctx, ctx.Machine().Now())
	}
	p.mu.Unlock()
	return n
}

// trimClean returns surplus clean windows' address space to the KVA arena,
// keeping at most keep windows per size class.  Laundering deliberately
// never does this (a clean window is warm stock); the background daemon
// does, so a load spike's window population shrinks back during lulls and
// the arena's free ranges re-coalesce.  Arena frees are address-routed, so
// under NUMA homing each window's span returns to the region — the socket
// — it was reserved from, regardless of which CPU runs the trim.  Returns
// how many windows were freed.
func (p *runPool) trimClean(ctx *smp.Context, keep int) int {
	ctx.ChargeLock()
	p.mu.Lock()
	sizes := make([]int, 0, len(p.clean))
	for size := range p.clean {
		if len(p.clean[size]) > keep {
			sizes = append(sizes, size)
		}
	}
	sort.Ints(sizes) // deterministic free order
	freed := 0
	for _, size := range sizes {
		ws := p.clean[size]
		for len(ws) > keep {
			w := ws[len(ws)-1]
			ws = ws[:len(ws)-1]
			p.arena.Free(w.base)
			freed++
		}
		p.clean[size] = ws
	}
	if freed > 0 {
		p.stats.Trimmed += uint64(freed)
	}
	p.mu.Unlock()
	return freed
}

// launder forces a laundering round outside the allocation path — a test
// and benchmark hook for draining parked windows deterministically.
func (p *runPool) launder(ctx *smp.Context) {
	ctx.ChargeLock()
	p.mu.Lock()
	p.launderLocked(ctx)
	p.mu.Unlock()
}

// snapshot copies the pool statistics and recomputes the capacity gauges
// from live state: clean vs parked window pages from the pool's own
// lists, the largest free run from the arena's current free list — so
// the fragmentation picture reflects frees and coalesces, not just the
// state at the last allocation, and a parked (revivable) window is never
// double-counted as free capacity.
func (p *runPool) snapshot() RunWindowStats {
	p.mu.Lock()
	s := p.stats
	for _, ws := range p.clean {
		for _, w := range ws {
			s.CleanPages += w.pages
		}
	}
	for _, w := range p.dirty {
		s.DirtyPages += w.pages
	}
	p.mu.Unlock()
	s.LargestFreeRun = p.arena.LargestFreeRun()
	return s
}
