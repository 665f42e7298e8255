package sfbuf

import (
	"sync/atomic"

	"sfbuf/internal/cycles"
	"sfbuf/internal/smp"
)

// Background reclaim and laundering daemon.
//
// The paper's sf_buf cache reclaims only on allocation-miss shortage, so
// the first allocation after a quiet period eats an entire reclaim round
// plus a forced shootdown flush — a tail-latency spike paid exactly when
// the machine was doing nothing and could have paid it for free.  The
// daemon is the low-watermark fix: a modeled per-CPU kernel thread,
// driven by smp.Machine idle ticks, that does the shortage work ahead of
// demand and charges it against idle time.
//
// One pass, per sharded core, does three things in order:
//
//  1. Age-bound laundering: parked run windows older than the pool's
//     LaunderAge are torn down and flushed, so a revivable window's hold
//     on frames, address space, and TLB masks is bounded by time, not by
//     the arrival of runLaunderBatch-1 siblings.
//  2. Watermark refill: while the idling CPU's clean freelist or the
//     overflow pool sits below the watermark, run ordinary reclaim rounds
//     (LRU inactive harvest, batched teardown, ONE ranged IPI flush per
//     round) with want=0 so every harvested buffer restocks the freelists
//     and pool.  The next burst's misses then pop clean stock instead of
//     paying the round synchronously.
//  3. Clean-window trim: surplus laundered run windows (beyond
//     runLaunderBatch per size class) return their address space to the
//     KVA arena, whose free-range merging re-coalesces it — the pool's
//     address-space analogue of buddy coalescing.  (Buddy frame
//     coalescing itself is eager on free and needs no daemon help; the
//     deferred coalescing debt in this system lives in the VA arena.)
//
// Charging model: daemon work runs on the idling CPU's context and is
// charged normally — its locks, walks and IPIs are as real as the
// workload's and hit the same machine-wide counters — but the cycles come
// out of the idle stretch (tracked as Counters.DaemonCycles against
// Counters.IdleCycles), not out of workload time.  The pass checks its
// budget between reclaim rounds and stops when the tick is spent, so a
// short lull buys a partial refill rather than a latency debt.

// DaemonConfig configures NewDaemon.
type DaemonConfig struct {
	// Watermark is the clean-stock low watermark, in buffers, applied to
	// the idling CPU's freelist and to the overflow pool.  0 means half
	// the per-CPU freelist capacity (minimum 1).
	Watermark int
	// LaunderAge, when nonzero, overrides the run pools' parked-window
	// age bound (see DefaultLaunderAge); negative disables the bound.
	LaunderAge cycles.Cycles
}

// DaemonStats counts background-daemon activity.
type DaemonStats struct {
	// Passes counts idle ticks that ran the daemon.
	Passes uint64
	// RefillRounds counts reclaim rounds the daemon ran to restock clean
	// freelists, and RefilledBufs the buffers those rounds harvested.
	RefillRounds uint64
	RefilledBufs uint64
	// AgedLaunders/AgedWindows mirror the run pool's age-bound laundering
	// counters (sync-path and daemon-path both).
	AgedLaunders uint64
	AgedWindows  uint64
	// TrimmedWindows counts clean run windows whose address space the
	// daemon's trim pass returned to the KVA arena.
	TrimmedWindows uint64

	// MigrateRounds counts idle ticks that ran a defragmentation round,
	// and MigratedBlocks the superpage-span blocks those rounds fully
	// coalesced (see MigrationStats for the finer-grained counters).
	MigrateRounds  uint64
	MigratedBlocks uint64

	// TierRounds counts idle ticks that ran the registered tier duty
	// (SetTierDuty) — on a tiered pool, the kernel tier keeper's
	// background demotion pass that keeps a free reserve in the fast
	// tier.
	TierRounds uint64

	// RefilledBySocket and TrimmedBySocket split RefilledBufs and
	// TrimmedWindows by the socket of the CPU whose idle tick did the
	// work — the per-socket view of where the daemon's background effort
	// lands.  Length is the machine's socket count (1 on a flat machine).
	RefilledBySocket []uint64
	TrimmedBySocket  []uint64
}

// Daemon is the background reclaim and laundering worker for a mapper's
// sharded core.  Register its Run method as the machine's idle work.
type Daemon struct {
	core      *shardedCache
	watermark int

	// mig, when set (SetMigrator), adds defragmentation by migration as
	// the pass's fourth duty: up to migBlocks nearly-free superpage spans
	// are evacuated per tick.
	mig       *Migrator
	migBlocks int

	// tierDuty, when set (SetTierDuty), runs as the pass's fifth duty:
	// the tier keeper's background demotion, which evicts the coldest
	// fast-tier residents while the CPU has idle budget to pay for the
	// copies.
	tierDuty func(ctx *smp.Context)

	passes         atomic.Uint64
	refills        atomic.Uint64
	refilled       atomic.Uint64
	trimmed        atomic.Uint64
	migRounds      atomic.Uint64
	migBlocksFreed atomic.Uint64
	tierRounds     atomic.Uint64

	// Per-socket attribution of refill and trim work, indexed by the
	// socket of the CPU running the pass.
	refilledSock []atomic.Uint64
	trimmedSock  []atomic.Uint64
}

// shardedCore extracts the sharded cache core behind a mapper: the
// sharded i386 engine's, nil for the figure-reproduction (global-lock),
// original and amd64 direct-map engines.
func shardedCore(m Mapper) *shardedCache {
	if v, ok := m.(*I386); ok {
		if sc, ok := v.c.(*shardedCache); ok {
			return sc
		}
	}
	return nil
}

// SetLaunderAge sets the parked-window age bound on the sharded core
// behind m (0 disables it).  No-op for engines without run pools.
func SetLaunderAge(m Mapper, age cycles.Cycles) {
	if c := shardedCore(m); c != nil {
		c.runs.setLaunderAge(age)
	}
}

// NewDaemon builds a background daemon for the mapper's sharded core,
// applying cfg.LaunderAge to its run pool.  Returns nil if the mapper has
// no sharded core (the global-lock figure engines, the original kernel
// and the amd64 direct map have no clean stock to refill and no windows
// to launder).
func NewDaemon(m Mapper, cfg DaemonConfig) *Daemon {
	c := shardedCore(m)
	if c == nil {
		return nil
	}
	switch {
	case cfg.LaunderAge > 0:
		SetLaunderAge(m, cfg.LaunderAge)
	case cfg.LaunderAge < 0:
		SetLaunderAge(m, 0)
	}
	wm := cfg.Watermark
	if wm <= 0 {
		wm = c.cfg.PerCPUFree / 2
		if wm < 1 {
			wm = 1
		}
	}
	nsock := c.sockets
	if nsock < 1 {
		nsock = 1
	}
	return &Daemon{
		core:         c,
		watermark:    wm,
		refilledSock: make([]atomic.Uint64, nsock),
		trimmedSock:  make([]atomic.Uint64, nsock),
	}
}

// SetMigrator registers defragmentation by migration as the daemon's
// fourth duty: each pass with budget left runs one MigrateBlocks round
// with the given per-tick block budget.  A nil migrator (or blocks <= 0)
// leaves the daemon as it was.
func (d *Daemon) SetMigrator(mig *Migrator, blocks int) {
	if d == nil || mig == nil || blocks <= 0 {
		return
	}
	d.mig, d.migBlocks = mig, blocks
}

// SetTierDuty registers a tier-maintenance duty as the daemon's fifth
// idle-tick task, run after defragmentation when budget remains.  The
// kernel's tier keeper registers its background demotion pass here.  A
// nil duty leaves the daemon as it was.
func (d *Daemon) SetTierDuty(duty func(ctx *smp.Context)) {
	if d == nil || duty == nil {
		return
	}
	d.tierDuty = duty
}

// Run is the idle-tick entry point (an smp.IdleWork).  It spends up to
// budget cycles of the idling CPU doing one background pass, oldest
// duties first, and stops early once the budget is consumed.
// Duties 1-3 read frame-keyed state (revive keys, shard hashes) only
// under the run-pool and shard locks that already exclude the Migrator,
// so they need no exclusion of their own; duty 4, the defrag round, takes
// the Migrator's.
func (d *Daemon) Run(ctx *smp.Context, budget cycles.Cycles) {
	d.passes.Add(1)
	sock := ctx.Socket()
	if sock >= len(d.refilledSock) {
		sock = 0
	}
	start := ctx.CPU().Cycles()
	within := func() bool { return ctx.CPU().Cycles()-start < budget }
	c := d.core
	// 1. Retire parked run windows past the age bound.
	c.runs.launderAged(ctx)
	// 2. Refill clean stock to the watermark, one reclaim round at a time,
	// until the inactive lists run dry or the budget does.  On a homed core
	// the harvest stays on the idling CPU's own socket's shard group: the
	// daemon refills each socket's stocks from that socket's frames, and
	// never pays cross-package locks or IPIs for an optimization pass
	// (shortage-driven reclaim still spills).
	for within() && c.cleanBelow(ctx, d.watermark) {
		_, got := c.reclaimScoped(ctx, 0, nil, c.homed)
		if got == 0 {
			break
		}
		d.refills.Add(1)
		d.refilled.Add(uint64(got))
		d.refilledSock[sock].Add(uint64(got))
	}
	// 3. Give surplus clean windows' address space back to the arena.
	if within() {
		if n := c.runs.trimClean(ctx, runLaunderBatch); n > 0 {
			d.trimmed.Add(uint64(n))
			d.trimmedSock[sock].Add(uint64(n))
		}
	}
	if !within() {
		return
	}
	// 4. Defragment: evacuate a bounded number of nearly-free superpage
	// spans so AllocContig keeps finding intact blocks.  Like refill, this
	// is ahead-of-demand work charged to idle time; the synchronous
	// trigger (kernel.AllocPhysContig on contiguity failure) still covers
	// demand the daemon has not met.
	if d.mig != nil && within() {
		if n := d.mig.MigrateBlocks(ctx, d.migBlocks); n > 0 {
			d.migBlocksFreed.Add(uint64(n))
		}
		d.migRounds.Add(1)
	}
	// 5. Tier maintenance: background demotion keeps a free reserve in
	// the fast tier, so the next hot-extent promotion finds frames
	// instead of paying a synchronous eviction.
	if d.tierDuty != nil && within() {
		d.tierDuty(ctx)
		d.tierRounds.Add(1)
	}
}

// Stats reports cumulative daemon activity, including the run pools'
// age-bound laundering counters.
func (d *Daemon) Stats() DaemonStats {
	s := DaemonStats{
		Passes:           d.passes.Load(),
		RefillRounds:     d.refills.Load(),
		RefilledBufs:     d.refilled.Load(),
		TrimmedWindows:   d.trimmed.Load(),
		MigrateRounds:    d.migRounds.Load(),
		MigratedBlocks:   d.migBlocksFreed.Load(),
		TierRounds:       d.tierRounds.Load(),
		RefilledBySocket: make([]uint64, len(d.refilledSock)),
		TrimmedBySocket:  make([]uint64, len(d.trimmedSock)),
	}
	for i := range d.refilledSock {
		s.RefilledBySocket[i] = d.refilledSock[i].Load()
		s.TrimmedBySocket[i] = d.trimmedSock[i].Load()
	}
	rs := d.core.runs.snapshot()
	s.AgedLaunders, s.AgedWindows = rs.AgedLaunders, rs.AgedWindows
	return s
}

// cleanBelow reports whether the calling CPU's clean freelist or the
// overflow pool is below the watermark.  Peeking takes the same charged
// locks a restock would: the daemon's probe cost is modeled, not free.
func (c *shardedCache) cleanBelow(ctx *smp.Context, wm int) bool {
	self := ctx.CPUID()
	f := c.freelists[self]
	ctx.ChargeLockAt(c.cpuSock[self])
	f.mu.Lock()
	n := len(f.bufs)
	f.mu.Unlock()
	if n < wm {
		return true
	}
	// On a homed core the daemon watches its own socket's pool sub-stock;
	// the other sockets' daemons watch theirs.
	pi := c.poolIdx(ctx)
	ctx.ChargeLockAt(pi)
	c.pool.mu.Lock()
	pn := len(c.pool.socks[pi])
	c.pool.mu.Unlock()
	return pn < wm
}
