package sfbuf

import (
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Tier migration: the mechanism half of consumer-hinted hot-extent
// placement on a tiered physical pool (vm.SetTierSplit).  The policy —
// which extents are hot, which resident extent is coldest, when the fast
// tier is under pressure — lives above, in the kernel's tier keeper; this
// file only knows how to move a quiescent extent's frames into a tier
// without changing one observable byte, reusing the defragmentation
// Migrator's machinery verbatim: the shard-scoped exclusion (lockAll),
// the vm.MigratePage copy-and-swap, and the honest-TLB handoff with ONE
// accumulated shootdown flush per call.
//
// A tier move is cheaper to reason about than an evacuation because the
// destination is explicit (vm.TierTarget picks the lowest free frame of
// the requested tier) and partial progress is fine: an extent whose pages
// are half promoted simply pays the slow surcharge on the other half
// until the next pass.  Non-quiescent pages (wired, in a checked-out run,
// hash-referenced) are skipped, not waited for.

// MoveToTier migrates the given pages' frames into the given tier,
// preferring destination frames homed on socket pref, and returns how
// many pages actually moved.  Pages already resident in the tier, pages
// that are not quiescent, and pages whose owners race the move (freeing
// or wiring them mid-pass) are skipped; a full destination tier ends the
// pass early — the caller decides whether to demote something and retry.
// The whole pass is one block: it runs under lockAll, and every remapped
// or stale translation is retired in one shootdown flush before mapping
// traffic resumes.
func (g *Migrator) MoveToTier(ctx *smp.Context, pages []*vm.Page, tier, pref int) int {
	if g == nil || len(pages) == 0 || !g.phys.Tiered() {
		return 0
	}
	start := ctx.CPU().Cycles()
	ctx.ChargeLock()
	g.c.lockAll()
	var doomed []*vm.Page
	queued := false
	for _, pg := range pages {
		f := pg.Frame()
		if f == 0 || g.phys.TierOfFrame(f) == tier {
			continue
		}
		// Quiescence: the same bar evacuate sets, but per page — one hot
		// page skips itself, not the whole extent.
		if !g.quiescentLocked(pg, f) {
			continue
		}
		dst, err := g.phys.TierTarget(tier, pref)
		if err != nil {
			break // destination tier is full: the caller owns the eviction policy
		}
		_, moved, evicted := g.move(ctx, pg, f, dst)
		queued = queued || evicted
		if moved {
			doomed = append(doomed, dst)
		}
	}
	g.finish(ctx, doomed, queued)
	g.tierMoved.Add(uint64(len(doomed)))
	g.cycles.Add(uint64(ctx.CPU().Cycles() - start))
	return len(doomed)
}
