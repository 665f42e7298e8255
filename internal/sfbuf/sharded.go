package sfbuf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfbuf/internal/cycles"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file implements the sharded mapping cache: a scalability redesign
// of the Section 4.2 cache for machines with many CPUs.  The paper's
// design serializes every Alloc and Free behind one mutex and pays one
// shootdown IPI round per shared reuse of an accessed mapping.  The
// sharded design removes both bottlenecks while keeping the Table 1 API
// and the TLB-coherence obligations intact:
//
//   - The hash table and inactive list are split into lock-striped shards
//     indexed by physical page number, so allocations of different pages
//     contend only when their frames collide on a shard.
//   - Each CPU keeps a small freelist of CLEAN buffers — torn down, PTE
//     invalid, guaranteed absent from every TLB.  A miss takes a clean
//     buffer, installs the new translation, and returns WITHOUT issuing
//     any invalidation: the accessed-bit argument of Section 4.2 applies
//     exactly (the replaced entry was invalid and unaccessed), and because
//     the buffer is clean the cpumask may remain "all processors" even for
//     shared mappings.
//   - Clean buffers are produced in batches: when the freelists run dry, a
//     reclaim round harvests the least-recently-used inactive buffers from
//     the shards, tears their mappings down, and retires every required
//     invalidation through the per-CPU shootdown queue in ONE ranged IPI
//     round (smp.QueueShootdown / smp.FlushShootdowns).  Teardown
//     invalidations target each mapping's tlbmask — the CPUs that could
//     have pulled the translation into their TLBs, which the per-mapping
//     bookkeeping the paper already requires tells us precisely — so a
//     CPU-private workload never interrupts other processors at all.
//
// The net effect is that the per-operation shootdown cost of the global
// design (one IPI round per shared miss) becomes one IPI round per
// ReclaimBatch misses, and the single mutex becomes per-shard striping
// plus an uncontended per-CPU freelist lock.
//
// Coherence argument.  A buffer's life starts clean: no TLB on any CPU
// holds a translation for its virtual address.  While the mapping is
// live, TLB entries for it are current by definition (the PTE does not
// change during a life; revivals from the inactive list reuse the same
// translation).  Therefore no CPU ever holds a STALE entry for a mapped
// buffer, and cpumask = all processors is truthful for every mapping this
// engine hands out — no purge-on-first-use is ever needed.  Staleness can
// only arise at reuse, and reuse only happens through reclaim, which
// invalidates the mapping everywhere it could be cached before the buffer
// re-enters circulation.  The stress tests verify this through the honest
// MMU: reads through every mapping must return the mapped page's bytes.

// Defaults for the sharded cache's tuning knobs.
const (
	// DefaultPerCPUFree is the clean-buffer stock each CPU may park.
	DefaultPerCPUFree = 16
	// DefaultReclaimBatch is how many inactive buffers one reclaim round
	// tears down — and thus how many misses share one shootdown round.
	DefaultReclaimBatch = 32
)

// ShardedConfig tunes the sharded mapping cache.  Zero values select
// defaults derived from the machine and cache size.
type ShardedConfig struct {
	// Shards is the lock-stripe count; it is rounded up to a power of
	// two.  Zero derives 2x the CPU count, scaled down for tiny caches.
	Shards int
	// PerCPUFree bounds each CPU's clean-buffer freelist.
	PerCPUFree int
	// ReclaimBatch is the number of buffers recycled per reclaim round.
	ReclaimBatch int
	// Homed selects socket-homed state placement on a multi-socket
	// machine: shards are grouped per socket with each frame routed to
	// its home socket's group, the overflow pool splits into per-socket
	// stocks, the clean-stock steal order prefers same-socket state, and
	// reclaim harvests the caller's own socket group first.  Off (the
	// default), the cache keeps the flat global-hash striping — on a
	// one-socket machine the two layouts are identical, so the knob only
	// matters when smp.Machine has a multi-socket topology.
	Homed bool
}

// withDefaults resolves zero fields against the machine and cache size.
func (c ShardedConfig) withDefaults(ncpu, entries int) ShardedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
		for c.Shards < ncpu*2 {
			c.Shards <<= 1
		}
	} else {
		n := 1
		for n < c.Shards {
			n <<= 1
		}
		c.Shards = n
	}
	// Never stripe so finely that shards average fewer than 8 entries.
	for c.Shards > 1 && entries/c.Shards < 8 {
		c.Shards >>= 1
	}
	if c.ReclaimBatch <= 0 {
		c.ReclaimBatch = DefaultReclaimBatch
	}
	if max := entries / 4; c.ReclaimBatch > max {
		c.ReclaimBatch = max
	}
	if c.ReclaimBatch < 1 {
		c.ReclaimBatch = 1
	}
	if c.PerCPUFree <= 0 {
		// A freelist should absorb a whole reclaim batch so steady-state
		// churn restocks without touching the shared overflow pool.
		c.PerCPUFree = DefaultPerCPUFree
		if want := c.ReclaimBatch * 3 / 2; want > c.PerCPUFree {
			c.PerCPUFree = want
		}
	}
	if max := entries / (2 * ncpu); c.PerCPUFree > max {
		c.PerCPUFree = max
	}
	if c.PerCPUFree < 1 {
		c.PerCPUFree = 1
	}
	return c
}

// cacheShard is one lock stripe: its mutex guards the slots of
// shardedCache.table whose frames hash here, plus the inactive buffers
// whose mappings do.  Only latently-valid buffers (freed but still mapped)
// sit on a shard's inactive list; clean buffers live on the freelists and
// overflow pool instead.
type cacheShard struct {
	mu       sync.Mutex
	valid    int // occupied table slots among this shard's frames
	inactive bufList
	// Statistics of the events mu already serializes: allocations (hits
	// and misses) of this shard's frames and frees of their buffers.
	allocs, hits, misses, frees uint64
}

// cpuFree is one CPU's clean-buffer stock.  Its mutex is uncontended
// except when another CPU steals during a shortage.
type cpuFree struct {
	mu    sync.Mutex
	bufs  []*Buf
	takes uint64 // buffers popped for a miss (Stats.FreelistAllocs)
}

type shardedCache struct {
	m     *smp.Machine
	pm    *pmap.Pmap
	cfg   ShardedConfig
	total int // buffer count, the ceiling on any one batch

	shards    []*cacheShard
	shardMask uint64
	freelists []*cpuFree
	// table is the hash table of valid sf_bufs in its dense form: table[f]
	// is the buffer mapping frame f, nil when none does.  Frames are small
	// integers fixed at boot (vm.PhysMem keeps the same kind of array), so
	// the frame is the index; slot f is guarded by shardFor(f).mu.
	table []*Buf

	// Socket homing.  Every lock on the clean-stock and shard paths has a
	// home socket for smp.ChargeLockAt: shardHome per stripe (the owning
	// socket under Homed, round-robin across sockets for the striped
	// baseline — which is what makes the baseline pay cross-package
	// transfers), cpuSock per freelist (its owner CPU's socket, in both
	// layouts).  planOf is each CPU's clean-stock search order beyond its
	// own freelist and spreadOf its restock order for reclaim surplus;
	// under Homed both visit same-socket state before crossing a package.
	homed     bool
	sockets   int
	shardsPer int   // Homed: stripes per socket group
	shardHome []int // home socket of each shard's lock
	cpuSock   []int // home socket of each CPU's freelist lock
	planOf    [][]stealStep
	spreadOf  [][]int

	// pool is the overflow stock of clean buffers beyond the per-CPU
	// freelists — one sub-stock per socket under Homed, a single global
	// stock homed on socket 0 otherwise — and doubles as the sleep
	// rendezvous for exhaustion.  One mutex guards all sub-stocks; the
	// modeled per-socket lock cost is charged per sub-stock touched.
	pool struct {
		mu    sync.Mutex
		cond  *sync.Cond
		socks [][]*Buf
		// wakes counts bumpFreeN's visits with sleepers registered: a
		// sleeper that sees it move between registering and blocking
		// rescans instead (see prepareSleep).
		wakes uint64
		// Statistics of the events pool.mu serializes.
		takes, sleeps, interrupted uint64
	}
	// waiters counts sleepers in alloc.  It changes only under pool.mu
	// but is read atomically on the free fast path, which must not take
	// a cache-global lock just to learn nobody is waiting.
	waiters atomic.Int32

	// Batch-fair exhaustion wakeups.  A starving batch or run (the sole
	// batchMu holder) registers its shortfall here instead of waking per
	// freed buffer: frees credit the claim, and the sleeper is signalled
	// once, when enough buffers have been freed to cover the shortfall.
	// Without the claim, a 16-page batch sleeping under exhaustion wakes
	// and rescans every shard group 16 times while singles race it for
	// each freed buffer.  Credits are counts, not reservations — a
	// non-sleeping allocator can still win the race to the freed buffers,
	// in which case the claimer re-registers the remainder — so fairness
	// is probabilistic but the per-free thundering rescans are gone.
	// claimNeed/claimGot are guarded by pool.mu; batchMu guarantees at
	// most one claim is registered at a time.
	//
	// The registered shortfall is exact at registration time (the
	// claimer just rescanned), but it can become an OVERestimate while
	// the claimer sleeps: if another CPU maps one of the batch's pages,
	// that page now resolves by hash hit, needing no freed buffer at
	// all.  Waiting for the full shortfall in credits could then sleep
	// forever even though a rescan would succeed.  hitGen counts hash
	// coverage growth (new entries installed); a claimer also wakes when
	// it advances, rescans, and re-registers the (smaller) remainder.
	claimNeed int
	claimGot  int
	claimCond *sync.Cond
	hitGen    atomic.Uint64

	// runs manages the reserved VA windows behind AllocRun.
	runs *runPool

	// reclaimHand rotates the shard a reclaim round harvests first, so
	// pressure spreads across stripes.
	reclaimHand atomic.Uint64

	// batchMu serializes batches that must sleep for buffers.  Two
	// concurrent batches each under the capacity guard could otherwise
	// deadlock holding partial runs (4+4 buffers of an 8-buffer cache,
	// both asleep, nobody left to free).  A batch that cannot complete
	// releases everything it holds, queues here, and only the single
	// holder may accumulate a partial run across sleeps — every other
	// starving batch waits empty-handed, so the holder always drains.
	batchMu sync.Mutex

	// Migration needs no lock of its own.  A page's frame — and with it
	// the shard its buffer hashes to and the revive key of a parked run
	// window — changes only inside vm.MigratePage, which the Migrator
	// calls holding every shard lock and the run pool's (lockAll).  So a
	// mapping path reads page.Frame(), locks that frame's shard and
	// re-reads the frame under the lock (lockPage): equal, and the frame
	// is pinned until the unlock; moved, and it retries on the new shard.
	// The run path reads frames only under runs.mu, and a checked-out
	// run's frames are marked live there, which vetoes their migration.

	ablate Ablation

	// Statistics counted outside the shard, freelist, pool and run-pool
	// locks, which hold the rest: these events hold no lock of their own,
	// and none of them is on the hit or free path.
	wouldBlock, reclaims, reclaimed     atomic.Uint64
	batchAllocs, batchFrees, batchPages atomic.Uint64
}

var (
	_ mapCore = (*cache)(nil)
	_ mapCore = (*shardedCache)(nil)
)

// newShardedCache builds the engine over the given virtual addresses,
// drawing contiguous run windows from arena.  Every buffer starts clean —
// never mapped, absent from all TLBs — with its cpumask truthfully "all
// processors", distributed round-robin across the per-CPU freelists with
// the remainder in the overflow pool.
func newShardedCache(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, vas []uint64, cfg ShardedConfig) *shardedCache {
	cfg = cfg.withDefaults(m.NumCPUs(), len(vas))
	topo := m.Topology()
	sockets := topo.Sockets
	if sockets < 1 {
		sockets = 1
	}
	homed := cfg.Homed && sockets > 1
	nshards, shardsPer := cfg.Shards, cfg.Shards
	if homed {
		shardsPer = cfg.Shards / sockets
		if shardsPer < 1 {
			shardsPer = 1
		}
		nshards = shardsPer * sockets
		cfg.Shards = nshards
	}
	c := &shardedCache{
		m:         m,
		pm:        pm,
		cfg:       cfg,
		total:     len(vas),
		shards:    make([]*cacheShard, nshards),
		shardMask: uint64(nshards - 1),
		freelists: make([]*cpuFree, m.NumCPUs()),
		table:     make([]*Buf, m.Phys.Frames()+1), // frames count from 1
		homed:     homed,
		sockets:   sockets,
		shardsPer: shardsPer,
		runs:      newRunPool(pm, arena, m.Phys.Frames()+1),
	}
	c.runs.homed = homed
	c.pool.cond = sync.NewCond(&c.pool.mu)
	c.claimCond = sync.NewCond(&c.pool.mu)
	c.runs.forceDebt = func() bool { return c.ablate&AblateAccessedBit != 0 }
	for i := range c.shards {
		c.shards[i] = &cacheShard{}
	}
	for i := range c.freelists {
		c.freelists[i] = &cpuFree{}
	}
	c.buildHoming(topo)
	all := m.AllCPUs()
	for i, va := range vas {
		b := &Buf{kva: va, cpumask: all}
		if f := c.freelists[i%len(c.freelists)]; len(f.bufs) < cfg.PerCPUFree {
			f.bufs = append(f.bufs, b)
		} else {
			pi := i % len(c.pool.socks)
			c.pool.socks[pi] = append(c.pool.socks[pi], b)
		}
	}
	return c
}

// stealStep is one stop on a CPU's clean-stock search beyond its own
// freelist: an overflow sub-stock (pool >= 0) or a sibling CPU's freelist
// (cpu >= 0).  Exactly one field is set per step.
type stealStep struct{ pool, cpu int }

// buildHoming precomputes the lock homes and per-CPU search orders.
// Striped layout: shard homes round-robin across sockets, one overflow
// stock homed on socket 0, steal order pool-then-every-sibling — the flat
// PR 6 behaviour, now with its cross-package lock transfers charged.
// Homed layout: shard i belongs to socket i/shardsPer, one overflow stock
// per socket, and the steal/spread orders visit own socket's state before
// any remote socket's.
func (c *shardedCache) buildHoming(topo smp.Topology) {
	ncpu := len(c.freelists)
	c.shardHome = make([]int, len(c.shards))
	for i := range c.shards {
		if c.homed {
			c.shardHome[i] = i / c.shardsPer
		} else {
			c.shardHome[i] = i % c.sockets
		}
	}
	c.cpuSock = make([]int, ncpu)
	for i := range c.cpuSock {
		c.cpuSock[i] = topo.SocketOf(i)
	}
	npool := 1
	if c.homed {
		npool = c.sockets
	}
	c.pool.socks = make([][]*Buf, npool)
	c.planOf = make([][]stealStep, ncpu)
	c.spreadOf = make([][]int, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		var plan []stealStep
		var spread []int
		if !c.homed {
			plan = append(plan, stealStep{pool: 0, cpu: -1})
			for i := 0; i < ncpu; i++ {
				if i != cpu {
					plan = append(plan, stealStep{pool: -1, cpu: i})
				}
				spread = append(spread, (cpu+i)%ncpu)
			}
		} else {
			sock := c.cpuSock[cpu]
			plan = append(plan, stealStep{pool: sock, cpu: -1})
			// Same-socket siblings, rotated from the owner so two
			// neighbors under shortage don't always raid the same victim.
			perSock := topo.CPUsPerSocket
			base := sock * perSock
			for i := 0; i < perSock; i++ {
				peer := base + (cpu-base+i)%perSock
				if peer != cpu {
					plan = append(plan, stealStep{pool: -1, cpu: peer})
				}
				spread = append(spread, base+(cpu-base+i)%perSock)
			}
			for s := 0; s < c.sockets; s++ {
				if s != sock {
					plan = append(plan, stealStep{pool: s, cpu: -1})
				}
			}
			for i := 0; i < ncpu; i++ {
				if c.cpuSock[i] != sock {
					plan = append(plan, stealStep{pool: -1, cpu: i})
					spread = append(spread, i)
				}
			}
		}
		c.planOf[cpu] = plan
		c.spreadOf[cpu] = spread
	}
}

func (c *shardedCache) shardIdx(frame uint64) uint64 {
	// Fibonacci hashing spreads dense frame numbers across stripes.
	h := frame * 0x9E3779B97F4A7C15 >> 32
	if c.homed {
		// The frame's home socket picks the group; the hash only picks
		// the stripe within it, so socket-local traffic stays on
		// socket-local locks.
		sock := uint64(c.m.Phys.SocketOfFrame(frame))
		return sock*uint64(c.shardsPer) + h%uint64(c.shardsPer)
	}
	return h & c.shardMask
}

func (c *shardedCache) shardFor(frame uint64) *cacheShard {
	return c.shards[c.shardIdx(frame)]
}

// install records b as the mapping of frame, whose slot must be empty.
// Caller holds s.mu, s being the frame's shard.
func (c *shardedCache) install(s *cacheShard, frame uint64, b *Buf) {
	c.table[frame] = b
	s.valid++
}

// uninstall empties b's page's slot if b is what it holds.  Caller holds
// s.mu, s being the shard of that frame.
func (c *shardedCache) uninstall(s *cacheShard, b *Buf) {
	if f := b.page.Frame(); c.table[f] == b {
		c.table[f] = nil
		s.valid--
	}
}

// chargeShardLock charges acquiring shard si's lock against its home
// socket: remote on a cross-package acquisition, plain ChargeLock on a
// one-socket machine.
func (c *shardedCache) chargeShardLock(ctx *smp.Context, si uint64) {
	ctx.ChargeLockAt(c.shardHome[si])
}

// poolIdx returns the overflow sub-stock the calling CPU restocks into:
// its own socket's under Homed, the single global stock otherwise.  Sub-
// stock i is always homed on socket i for lock charging.
func (c *shardedCache) poolIdx(ctx *smp.Context) int {
	if c.homed {
		return c.cpuSock[ctx.CPUID()]
	}
	return 0
}

// bumpFreeN publishes that n buffers became reusable and wakes sleepers
// accordingly.  A registered batch claim is credited first: the starving
// batch (or run) absorbs freed buffers toward its shortfall and is
// signalled exactly once, when the shortfall is covered, instead of
// waking to rescan per freed buffer; only the surplus beyond the claim
// wakes single-page sleepers (one for a single buffer, all for more —
// each freed buffer may satisfy a different sleeper, and a woken
// allocator that resolves without consuming clean stock — a hash hit —
// never re-signals, so under-waking would strand sleepers on buffers
// that are sitting free).  The caller must already have made the buffers
// visible on their lists, under those lists' locks: a sleeper whose
// pre-sleep re-check missed them registered before it looked, so this
// load sees it (see prepareSleep) — and when nobody is registered the
// free path touches no cache-global word at all.
func (c *shardedCache) bumpFreeN(n int) {
	if n <= 0 {
		return
	}
	if c.waiters.Load() > 0 {
		c.pool.mu.Lock()
		c.pool.wakes++
		if short := c.claimNeed - c.claimGot; short > 0 {
			// An already-satisfied claim (claimGot >= claimNeed, its
			// holder not yet deregistered) absorbs nothing more: later
			// frees belong to the single-page sleepers in full.
			c.claimGot += n
			if c.claimGot >= c.claimNeed {
				c.claimCond.Signal()
			}
			if n > short {
				n -= short
			} else {
				n = 0
			}
		}
		if n == 1 {
			c.pool.cond.Signal()
		} else if n > 1 {
			c.pool.cond.Broadcast()
		}
		c.pool.mu.Unlock()
	}
}

// noteHashInsert records that the hash gained coverage (a new mapping
// was installed): the only event that can shrink a registered claim's
// true shortfall without a free.  A registered claimer is woken so it
// can rescan against the grown hash instead of waiting for credits that
// may never come.
func (c *shardedCache) noteHashInsert() {
	c.hitGen.Add(1)
	if c.waiters.Load() > 0 {
		c.pool.mu.Lock()
		if c.claimNeed > 0 {
			c.claimCond.Signal()
		}
		c.pool.mu.Unlock()
	}
}

// prepareSleep is the exhaustion path's lost-wakeup guard, run after a
// scan came up empty and before the sleeper blocks.  It registers the
// sleeper in waiters and notes pool.wakes, then re-checks every stock
// with pool.mu released (reusableLeft takes shard locks, and a shard
// holder may take pool.mu).  A buffer made reusable behind the re-check
// is published by bumpFreeN, which then sees the registration and moves
// wakes under pool.mu.  So it returns true — holding pool.mu, registered
// — only when the re-check found nothing and wakes did not move, and no
// wakeup can fall between the check and the caller's Wait; otherwise it
// deregisters and returns false, and the caller rescans.
func (c *shardedCache) prepareSleep() bool {
	c.pool.mu.Lock()
	c.waiters.Add(1)
	wakes := c.pool.wakes
	c.pool.mu.Unlock()
	left := c.reusableLeft()
	c.pool.mu.Lock()
	if left || c.pool.wakes != wakes {
		c.waiters.Add(-1)
		c.pool.mu.Unlock()
		return false
	}
	return true
}

// reusableLeft reports whether some buffer could be had right now: clean
// on a freelist or overflow stock, or latently valid on an inactive list,
// one reclaim round from clean.  Each list is read under its own lock and
// nothing is charged: the probe only closes prepareSleep's window.
func (c *shardedCache) reusableLeft() bool {
	for _, s := range c.shards {
		s.mu.Lock()
		n := s.inactive.n
		s.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	for _, f := range c.freelists {
		f.mu.Lock()
		n := len(f.bufs)
		f.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	for _, s := range c.pool.socks {
		if len(s) > 0 {
			return true
		}
	}
	return false
}

// claimWait is the starving batch/run sleep: register a claim for need
// buffers and block until frees have credited that many, hash coverage
// grows (a page the batch needs may now be a hit — rescan with a smaller
// shortfall), prepareSleep finds a buffer the scan missed, or — under
// Catch — a signal arrives (reported as
// interrupted; the interruption is counted).  rescanAll reports that the
// wake was a hash-coverage one: the registered need counted pages in
// shard groups the claimer has not reached yet, so only a rescan of
// EVERY group can shrink the shortfall the new coverage made stale —
// retrying the current group alone would re-register the same stale
// need and sleep again.  On every deregistration the single-page
// sleepers are woken if the claim absorbed credits: the claimer's rescan
// may consume fewer buffers than were credited (hash hits), and the
// leftovers must not strand singles whose wakeups the claim suppressed.
// The caller must hold batchMu, which makes it the sole claimer.  Frames
// may migrate while it sleeps, so a batch regroups its pages on return.
func (c *shardedCache) claimWait(ctx *smp.Context, need int, hgen uint64, flags Flags) (rescanAll, interrupted bool) {
	if !c.prepareSleep() {
		return c.hitGen.Load() != hgen, false
	}
	if c.hitGen.Load() != hgen {
		// A mapping was installed after our scan began; rescan instead.
		c.waiters.Add(-1)
		c.pool.mu.Unlock()
		return true, false
	}
	c.claimNeed, c.claimGot = need, 0
	c.pool.sleeps++
	for c.claimGot < c.claimNeed && c.hitGen.Load() == hgen {
		c.claimCond.Wait()
		if flags&Catch != 0 && ctx.Interrupted() {
			c.deregisterClaimLocked()
			c.pool.interrupted++
			c.pool.mu.Unlock()
			return false, true
		}
	}
	rescanAll = c.hitGen.Load() != hgen
	c.deregisterClaimLocked()
	c.pool.mu.Unlock()
	return rescanAll, false
}

// deregisterClaimLocked clears the claim and passes any absorbed credits
// on to the single-page sleepers.  Caller holds pool.mu.
func (c *shardedCache) deregisterClaimLocked() {
	if c.claimGot > 0 {
		c.pool.cond.Broadcast()
	}
	c.claimNeed, c.claimGot = 0, 0
	c.waiters.Add(-1)
}

// taint records which CPUs may pull the mapping into their TLBs during
// this use: the calling CPU for Private mappings, everyone for shared
// mappings (any CPU may dereference a shared address).  Caller holds the
// buf's shard lock.
func (c *shardedCache) taint(ctx *smp.Context, b *Buf, flags Flags) {
	if flags&Private != 0 {
		b.tlbmask = b.tlbmask.Set(ctx.CPUID())
	} else {
		b.tlbmask = c.m.AllCPUs()
	}
}

// alloc implements sf_buf_alloc on the sharded engine.  The hit path
// touches exactly one shard lock; the miss path additionally takes the
// allocating CPU's freelist lock, falling back to stealing and batched
// reclaim only under shortage.
func (c *shardedCache) alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error) {
	ctx.Charge(ctx.Cost().MapperOp)
	for {
		s, frame := c.lockPage(ctx, page)
		if b := c.hitLocked(ctx, s, frame, flags); b != nil {
			s.mu.Unlock()
			return b, nil
		}
		// Miss.  The clean-stock locks (freelist, pool) never nest
		// around shard locks anywhere, so the fast restock can run
		// without giving up this shard — one critical section covers
		// lookup, stock-taking and installation.
		b := c.takeClean(ctx)
		if b == nil {
			s.mu.Unlock()
			if b = c.reclaim(ctx); b != nil {
				s, frame = c.lockPage(ctx, page)
				if cur := c.hitLocked(ctx, s, frame, flags); cur != nil {
					// Another CPU mapped the frame while the shard
					// was unlocked; share its mapping, restock ours.
					s.mu.Unlock()
					c.putClean(ctx, b)
					return cur, nil
				}
			}
		}
		if b != nil {
			b.page = page
			b.ref = 1
			// The buffer is clean: the old PTE is invalid and
			// unaccessed, so no invalidation is needed and the
			// all-processors cpumask set at cleaning time stays
			// truthful — the accessed-bit optimization, guaranteed
			// rather than opportunistic.
			c.pm.KEnter(ctx, b.kva, page)
			installed := false
			if c.ablate&AblateSharing == 0 {
				c.install(s, frame, b)
				installed = true
			}
			c.taint(ctx, b, flags)
			s.allocs++
			s.misses++
			s.mu.Unlock()
			if installed {
				c.noteHashInsert()
			}
			return b, nil
		}

		// Exhausted: every buffer is referenced.
		if flags&NoWait != 0 {
			c.wouldBlock.Add(1)
			return nil, ErrWouldBlock
		}
		if !c.prepareSleep() {
			continue // a buffer turned up after our scan: rescan
		}
		c.pool.sleeps++
		c.pool.cond.Wait()
		c.waiters.Add(-1)
		if flags&Catch != 0 && ctx.Interrupted() {
			// Pass the wakeup on: the signal this sleeper consumed may
			// have announced a freed buffer that another sleeper is
			// still waiting for.
			if c.waiters.Load() > 0 {
				c.pool.cond.Signal()
			}
			c.pool.interrupted++
			c.pool.mu.Unlock()
			return nil, ErrInterrupted
		}
		c.pool.mu.Unlock()
	}
}

// lockPage locks the shard of page's current frame and returns it with
// that frame, charging each lock it takes.  The frame re-read under the
// lock is the exclusion against migration: the Migrator moves frames
// only while holding every shard lock, so a frame that still matches is
// pinned until the caller unlocks, and one that moved sends us to its
// new shard.
func (c *shardedCache) lockPage(ctx *smp.Context, page *vm.Page) (*cacheShard, uint64) {
	for {
		frame := page.Frame()
		si := c.shardIdx(frame)
		c.chargeShardLock(ctx, si)
		s := c.shards[si]
		s.mu.Lock()
		if page.Frame() == frame {
			return s, frame
		}
		s.mu.Unlock()
	}
}

// hitLocked takes a reference on frame's hash entry, if there is one and
// sharing is on, reviving it from the inactive list, and counts the hit.
// Caller holds s.mu, s being the frame's shard.
func (c *shardedCache) hitLocked(ctx *smp.Context, s *cacheShard, frame uint64, flags Flags) *Buf {
	b := c.table[frame]
	if b == nil || c.ablate&AblateSharing != 0 {
		return nil
	}
	if b.ref == 0 {
		s.inactive.remove(b)
	}
	b.ref++
	c.taint(ctx, b, flags)
	s.allocs++
	s.hits++
	return b
}

// takeClean is takeCleanBulk for one buffer, the single-page miss path:
// nil when the clean stock is exhausted and a reclaim round is needed.
func (c *shardedCache) takeClean(ctx *smp.Context) *Buf {
	var one [1]*Buf
	if got := c.takeCleanBulk(ctx, 1, one[:0]); len(got) > 0 {
		return got[0]
	}
	return nil
}

// putClean restocks a clean buffer the allocator ended up not needing.
func (c *shardedCache) putClean(ctx *smp.Context, b *Buf) {
	self := ctx.CPUID()
	ctx.ChargeLockAt(c.cpuSock[self])
	f := c.freelists[self]
	f.mu.Lock()
	if len(f.bufs) < c.cfg.PerCPUFree {
		f.bufs = append(f.bufs, b)
		f.mu.Unlock()
	} else {
		f.mu.Unlock()
		pi := c.poolIdx(ctx)
		c.pool.mu.Lock()
		c.pool.socks[pi] = append(c.pool.socks[pi], b)
		c.pool.mu.Unlock()
	}
	c.bumpFreeN(1)
}

// takeCleanBulk pops up to n clean buffers with as few lock round trips
// as possible: the calling CPU's freelist first (one round trip for the
// whole take), then the overflow stock(s) and sibling freelists in the
// CPU's steal order (same-socket state first under Homed).  It takes no
// shard locks, so callers may hold one.  It returns whatever stock it
// could find appended to into; the shortfall is the caller's to reclaim.
// Every lock it probes is charged: the modeled cost must not flatter the
// sharded engine against the global design's one mutex.
func (c *shardedCache) takeCleanBulk(ctx *smp.Context, n int, into []*Buf) []*Buf {
	want := n
	// pop runs under the lock guarding bufs and takes.
	pop := func(bufs *[]*Buf, takes *uint64) {
		take := want
		if m := len(*bufs); take > m {
			take = m
		}
		if take > 0 {
			cut := len(*bufs) - take
			into = append(into, (*bufs)[cut:]...)
			*bufs = (*bufs)[:cut]
			want -= take
			*takes += uint64(take)
		}
	}
	self := ctx.CPUID()
	ctx.ChargeLockAt(c.cpuSock[self])
	f := c.freelists[self]
	f.mu.Lock()
	pop(&f.bufs, &f.takes)
	f.mu.Unlock()
	for _, st := range c.planOf[self] {
		if want == 0 {
			break
		}
		if st.cpu < 0 {
			ctx.ChargeLockAt(st.pool)
			c.pool.mu.Lock()
			pop(&c.pool.socks[st.pool], &c.pool.takes)
			c.pool.mu.Unlock()
			continue
		}
		of := c.freelists[st.cpu]
		ctx.ChargeLockAt(c.cpuSock[st.cpu])
		of.mu.Lock()
		pop(&of.bufs, &of.takes)
		of.mu.Unlock()
	}
	return into
}

// putCleanBulk restocks clean buffers: the calling CPU's freelist up to
// its bound in one round trip, the surplus to the caller's overflow
// stock, and one wakeup round for the lot.
func (c *shardedCache) putCleanBulk(ctx *smp.Context, bufs []*Buf) {
	n := len(bufs)
	self := ctx.CPUID()
	ctx.ChargeLockAt(c.cpuSock[self])
	f := c.freelists[self]
	f.mu.Lock()
	if room := c.cfg.PerCPUFree - len(f.bufs); room > 0 {
		take := min(room, len(bufs))
		f.bufs = append(f.bufs, bufs[:take]...)
		bufs = bufs[take:]
	}
	f.mu.Unlock()
	if len(bufs) > 0 {
		pi := c.poolIdx(ctx)
		ctx.ChargeLockAt(pi)
		c.pool.mu.Lock()
		c.pool.socks[pi] = append(c.pool.socks[pi], bufs...)
		c.pool.mu.Unlock()
	}
	c.bumpFreeN(n)
}

// batchGroup is one shard's share of a vectored request: the indices of
// the batch's pages (or buffers) homed on that shard.  si is the shard's
// index, kept for charging its lock against its home socket.
type batchGroup struct {
	shard *cacheShard
	si    uint64
	idxs  []int
}

// extentScratch holds one multi-page operation's working slices: the
// shard grouping of a batch, and the clean buffers a batch stashes or a
// run claims as its tokens (held until freeRun).  Pooling them keeps the
// steady-state extent path allocation-free.
type extentScratch struct {
	groups []batchGroup // each slot keeps its idxs capacity across groupings
	bufs   []*Buf
}

var extentPool = sync.Pool{New: func() any { return new(extentScratch) }}

// release returns the scratch to extentPool.  Its cache pointers are
// cleared first: the pool outlives the cache they point into.
func (sc *extentScratch) release() {
	groups := sc.groups[:cap(sc.groups)]
	for i := range groups {
		groups[i].shard = nil
	}
	clear(sc.bufs[:cap(sc.bufs)])
	sc.groups, sc.bufs = sc.groups[:0], sc.bufs[:0]
	extentPool.Put(sc)
}

// groupByShard splits batch indices by home shard in first-appearance
// order, so a vectored operation takes each shard's lock exactly once.
// The groups live in sc and are overwritten by its next grouping.
func (c *shardedCache) groupByShard(sc *extentScratch, n int, frameOf func(int) uint64) []batchGroup {
	groups := sc.groups[:0]
	for i := 0; i < n; i++ {
		si := c.shardIdx(frameOf(i))
		gi := 0
		for gi < len(groups) && groups[gi].si != si {
			gi++
		}
		if gi == len(groups) {
			if gi == cap(groups) {
				groups = append(groups, batchGroup{})
			}
			groups = groups[:gi+1]
			g := &groups[gi]
			g.shard, g.si, g.idxs = c.shards[si], si, g.idxs[:0]
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	sc.groups = groups
	return groups
}

// allocBatch is the sharded engine's native vectored sf_buf_alloc: the
// whole run is resolved with one shard-lock round trip per shard touched,
// clean buffers are restocked with one bulk freelist pop instead of one
// pop per miss, and any reclaim a shortage forces retires its entire
// teardown debt in a single ranged shootdown flush.  The per-page
// bookkeeping cost (MapperOp) is unchanged — the vectored win is lock
// round trips and IPI rounds, not hash lookups.
func (c *shardedCache) allocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	if len(pages) > c.total {
		return nil, ErrBatchTooLarge
	}
	ctx.Charge(ctx.Cost().MapperOp * cycles.Cycles(len(pages)))

	// The grouping keys on each page's frame, which only migration can
	// change.  A group's scan re-reads each frame under the group's lock
	// and skips a page that now hashes elsewhere; the pages left over
	// when every group has been scanned are regrouped.
	frameOf := func(i int) uint64 { return pages[i].Frame() }
	sc := extentPool.Get().(*extentScratch)
	groups := c.groupByShard(sc, len(pages), frameOf)
	out := make([]*Buf, len(pages))
	pending := len(pages) // pages not yet resolved, the restock target
	stash := sc.bufs      // clean buffers carried across shard groups
	starving := false     // holding batchMu: sole batch allowed to sleep with a partial run
	defer func() {
		if starving {
			c.batchMu.Unlock()
		}
		if len(stash) > 0 {
			c.putCleanBulk(ctx, stash)
		}
		sc.bufs = stash
		sc.release()
	}()

restart:
	for gi := 0; pending > 0; gi++ {
		if gi == len(groups) {
			// Pages remain after every group's scan: they migrated to
			// another shard after the grouping.
			groups = c.groupByShard(sc, len(pages), frameOf)
			gi = 0
		}
		g := &groups[gi]
		s := g.shard
	retry:
		for {
			hgen := c.hitGen.Load()
			installed := 0
			c.chargeShardLock(ctx, g.si)
			s.mu.Lock()
			for _, idx := range g.idxs {
				if out[idx] != nil {
					continue // resolved before a shortage retry
				}
				pg := pages[idx]
				frame := pg.Frame()
				if c.shardIdx(frame) != g.si {
					continue // migrated since the grouping
				}
				if b := c.hitLocked(ctx, s, frame, flags); b != nil {
					out[idx] = b
					pending--
					continue
				}
				if len(stash) == 0 {
					// Bulk restock for every page the batch still has
					// outstanding, not just this group's.  Clean-stock
					// locks never nest around shard locks anywhere, so
					// holding s.mu is safe — the same argument as the
					// single-page miss path.
					stash = c.takeCleanBulk(ctx, pending, stash)
				}
				if len(stash) == 0 {
					// Shortage: give the shard up and run one reclaim
					// round (its whole teardown debt lands in one
					// flush), keeping the batch's shortfall for
					// ourselves instead of round-tripping it through
					// the freelists.
					s.mu.Unlock()
					if stash = c.reclaimBulk(ctx, pending, stash); len(stash) > 0 {
						continue retry
					}
					// Exhausted: every buffer is referenced.
					if flags&NoWait != 0 {
						c.wouldBlock.Add(1)
						c.rollbackBatch(ctx, out)
						return nil, ErrWouldBlock
					}
					if !starving {
						// Sleeping while holding a partial run is only
						// deadlock-free for one batch at a time: drop
						// everything, take the starvation token, and
						// rebuild from scratch as its sole holder.
						c.rollbackBatch(ctx, out)
						pending = len(pages)
						ctx.ChargeLock()
						c.batchMu.Lock()
						starving = true
						gi = -1 // restart every group
						continue restart
					}
					// About to sleep holding pending as the claim's
					// shortfall — but pending still counts pages in
					// groups this scan has not reached, and any of
					// those may be hash-resident (needing no clean
					// buffer at all).  Sweep every group for hits
					// first, so the claim registers the true
					// clean-buffer shortfall; if the sweep resolved
					// anything, rescan instead of sleeping.
					if swept := c.sweepHits(ctx, groups, pages, out, flags); swept > 0 {
						pending -= swept
						continue retry
					}
					// Claim-based sleep: register the batch's shortfall
					// and wake when frees have covered it — or when hash
					// coverage grows, shrinking the true shortfall —
					// instead of waking to rescan per freed buffer.
					// batchMu (held: starving == true) guarantees we are
					// the only claimer.
					if _, interrupted := c.claimWait(ctx, pending, hgen, flags); interrupted {
						c.rollbackBatch(ctx, out)
						return nil, ErrInterrupted
					}
					// Rescan every group after any wake — which picks up
					// any coverage a hash-growth wake announced — and
					// regroup first: an unresolved page may have migrated
					// to another shard while we slept.
					groups = c.groupByShard(sc, len(pages), frameOf)
					gi = -1
					continue restart
				}
				b := stash[len(stash)-1]
				stash = stash[:len(stash)-1]
				b.page = pg
				b.ref = 1
				// Clean buffer: invalid, unaccessed old PTE — no
				// invalidation owed, exactly as in the single-page miss.
				c.pm.KEnter(ctx, b.kva, pg)
				if c.ablate&AblateSharing == 0 {
					c.install(s, frame, b)
					installed++
				}
				c.taint(ctx, b, flags)
				out[idx] = b
				pending--
				s.allocs++
				s.misses++
			}
			s.mu.Unlock()
			if installed > 0 {
				c.noteHashInsert()
			}
			break
		}
	}
	c.batchAllocs.Add(1)
	c.batchPages.Add(uint64(len(pages)))
	return out, nil
}

// sweepHits resolves, across EVERY shard group, the batch pages that are
// already hash-resident — revivals and shares that need no clean buffer.
// The group-by-group scan normally discovers these in order, but the
// shortage path must know the whole batch's true clean-buffer shortfall
// before registering it as a claim, and a page in a not-yet-scanned
// group may already be covered.  One shard-lock round per group that
// still has unresolved pages.
func (c *shardedCache) sweepHits(ctx *smp.Context, groups []batchGroup, pages []*vm.Page, out []*Buf, flags Flags) int {
	if c.ablate&AblateSharing != 0 {
		return 0
	}
	resolved := 0
	for gi := range groups {
		g := &groups[gi]
		locked := false
		for _, idx := range g.idxs {
			if out[idx] != nil {
				continue
			}
			if !locked {
				c.chargeShardLock(ctx, g.si)
				g.shard.mu.Lock()
				locked = true
			}
			frame := pages[idx].Frame()
			if c.shardIdx(frame) != g.si {
				continue // migrated since the grouping
			}
			if b := c.hitLocked(ctx, g.shard, frame, flags); b != nil {
				out[idx] = b
				resolved++
			}
		}
		if locked {
			g.shard.mu.Unlock()
		}
	}
	return resolved
}

// rollbackBatch releases the references a partial batch holds and clears
// the slots it released.  A batch that fails allocates nothing, so each
// page's allocation is uncounted again; its hit or miss stays counted.
func (c *shardedCache) rollbackBatch(ctx *smp.Context, out []*Buf) {
	freed := 0
	for i, b := range out {
		if b == nil {
			continue
		}
		s, _ := c.lockPage(ctx, b.page)
		b.ref--
		s.allocs--
		if b.ref == 0 {
			s.inactive.pushTail(b)
			freed++
		}
		s.mu.Unlock()
		out[i] = nil
	}
	c.bumpFreeN(freed)
}

// freeBatch is the sharded engine's native vectored sf_buf_free: one
// shard-lock round trip per shard per batch and one wakeup for the lot.
// Under eager teardown (AblateLazyTeardown) the whole batch's
// invalidation debt is retired in one page-table pass and one queued
// shootdown flush, instead of one flush per buffer.
func (c *shardedCache) freeBatch(ctx *smp.Context, bufs []*Buf) {
	if len(bufs) == 0 {
		return
	}
	ctx.Charge(ctx.Cost().MapperOp * cycles.Cycles(len(bufs)))
	for _, b := range bufs {
		if b.page == nil {
			panic("sfbuf: free of unreferenced sf_buf")
		}
	}
	sc := extentPool.Get().(*extentScratch)
	defer sc.release()
	groups := c.groupByShard(sc, len(bufs), func(i int) uint64 { return bufs[i].page.Frame() })

	var eager, strays []*Buf
	freed := 0
	drop := func(s *cacheShard, b *Buf) {
		switch parked, tear := c.unrefLocked(s, b); {
		case parked:
			freed++
		case tear:
			eager = append(eager, b)
		}
	}
	for gi := range groups {
		g := &groups[gi]
		s := g.shard
		c.chargeShardLock(ctx, g.si)
		s.mu.Lock()
		for _, idx := range g.idxs {
			if b := bufs[idx]; c.shardIdx(b.page.Frame()) == g.si {
				drop(s, b)
			} else {
				strays = append(strays, b) // migrated since the grouping
			}
		}
		s.mu.Unlock()
	}
	for _, b := range strays {
		s, _ := c.lockPage(ctx, b.page)
		drop(s, b)
		s.mu.Unlock()
	}
	c.batchFrees.Add(1)
	if len(eager) > 0 {
		c.teardownBatch(ctx, eager)
		c.putCleanBulk(ctx, eager) // wakes one sleeper per buffer restocked
	}
	c.bumpFreeN(freed)
}

// claimTokens claims n clean buffers as run capacity: contiguous runs
// consume the cache's buffer inventory exactly as scattered mappings do
// (so capacity guards, exhaustion sleeping, and the batch-fair wakeup all
// apply), but their kernel virtual addresses go unused — the run's
// translations live in a reserved window instead.  The claim path is the
// batch shortage path: bulk freelist pops, then reclaim rounds handing
// the whole shortfall over under one flush, then — if the cache is truly
// exhausted — the starvation token and a claim-based sleep.  The tokens
// are appended to got; on an error none are kept.
func (c *shardedCache) claimTokens(ctx *smp.Context, n int, flags Flags, got []*Buf) ([]*Buf, error) {
	got = c.takeCleanBulk(ctx, n, got)
	if len(got) < n {
		got = c.reclaimBulk(ctx, n-len(got), got)
	}
	if len(got) >= n {
		return got, nil
	}
	if flags&NoWait != 0 {
		if len(got) > 0 {
			c.putCleanBulk(ctx, got)
		}
		c.wouldBlock.Add(1)
		return got[:0], ErrWouldBlock
	}
	// Exhausted: sleeping while holding part of the inventory is only
	// deadlock-free for one claimer at a time — drop everything, take the
	// starvation token, and accumulate as its sole holder.
	if len(got) > 0 {
		c.putCleanBulk(ctx, got)
		got = got[:0]
	}
	ctx.ChargeLock()
	c.batchMu.Lock()
	defer c.batchMu.Unlock()
	for {
		hgen := c.hitGen.Load()
		if len(got) < n {
			got = c.takeCleanBulk(ctx, n-len(got), got)
		}
		if len(got) < n {
			got = c.reclaimBulk(ctx, n-len(got), got)
		}
		if len(got) >= n {
			return got, nil
		}
		// Runs never hash-hit, so a hash-coverage wake just loops for
		// another (rare, spurious) reclaim scan.
		if _, interrupted := c.claimWait(ctx, n-len(got), hgen, flags); interrupted {
			if len(got) > 0 {
				c.putCleanBulk(ctx, got)
			}
			return got[:0], ErrInterrupted
		}
	}
}

// allocRun is the sharded engine's native contiguous-run path: claim the
// run's capacity from the clean-buffer inventory in bulk, take a window
// from the run pool, and install every translation with ONE page-table
// pass.  When the pool revives a parked window whose installed extent
// matches the request — the page-set cache hit — even that pass is
// skipped: the run reuses the parked translations with zero PTE writes
// and zero shootdown debt, exactly as a hash hit reuses an inactive
// buffer, and the pages count as cache Hits.  No invalidation is ever
// owed at map time — a cold window is only handed out after the
// laundering flush that retired its previous life's debt, and a revived
// window's translations are current by construction.
func (c *shardedCache) allocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error) {
	n := len(pages)
	if n == 0 {
		return nil, nil
	}
	if n > c.total {
		return nil, ErrBatchTooLarge
	}
	ctx.Charge(ctx.Cost().MapperOp * cycles.Cycles(n))
	tokens := extentPool.Get().(*extentScratch)
	var err error
	if tokens.bufs, err = c.claimTokens(ctx, n, flags, tokens.bufs); err != nil {
		tokens.release()
		return nil, err
	}
	// get marks the run's frames live, which keeps the Migrator off them
	// until freeRun, so the install pass below reads settled frames.
	win, revived, err := c.runs.get(ctx, pages)
	if err != nil {
		c.putCleanBulk(ctx, tokens.bufs)
		tokens.release()
		return nil, fmt.Errorf("sfbuf: reserving a %d-page run window: %w", n, err)
	}
	if !revived {
		c.pm.KEnterRun(ctx, win.base, pages)
	}
	mask := c.m.AllCPUs()
	if flags&Private != 0 {
		mask = smp.CPUSet(0).Set(ctx.CPUID())
	}
	// The window is this run's alone until freeRun parks it, so its page
	// slice is the run's page copy.
	win.live = append(win.live[:0], pages...)
	return &Run{
		pages:  win.live,
		base:   win.base,
		contig: true,
		mask:   mask,
		tokens: tokens,
		win:    win,
		home:   c,
	}, nil
}

// freeRun releases a run LAZILY: the window parks on the run pool's
// dirty list with its translations still installed, indexed by the frame
// extent it maps, so a repeat AllocRun over the same extent revives it
// with no PTE writes and no shootdown debt.  The page-table teardown and
// the run's whole invalidation debt are deferred to a laundering round —
// one bulk removal pass and one queued shootdown flush shared with up to
// runLaunderBatch-1 other windows — which only happens when the pool
// needs clean stock.  The claimed capacity restocks the freelists now,
// with one wakeup for the lot.
func (c *shardedCache) freeRun(ctx *smp.Context, r *Run) {
	if r.home != c || r.win == nil {
		panic("sfbuf: freeRun of a foreign or already-freed run")
	}
	n := len(r.pages)
	ctx.Charge(ctx.Cost().MapperOp * cycles.Cycles(n))
	c.runs.put(ctx, r.win, r.pages, r.mask)
	tokens := r.tokens
	r.pages, r.tokens, r.win, r.home = nil, nil, nil, nil
	c.putCleanBulk(ctx, tokens.bufs)
	tokens.release()
}

// launderRunWindows forces a laundering round, draining every parked
// window's deferred teardown in one flush — the deterministic drain hook
// tests and benchmarks use between phases.
func (c *shardedCache) launderRunWindows(ctx *smp.Context) { c.runs.launder(ctx) }

// reclaimScratch holds one reclaim round's working slices; pooling them
// keeps the steady-state churn path allocation-free.
type reclaimScratch struct {
	victims    []*Buf
	vpns       []uint64
	accessed   []bool
	selfVpns   []uint64
	queueVpns  []uint64
	queueMasks []smp.CPUSet
}

var scratchPool = sync.Pool{New: func() any { return new(reclaimScratch) }}

// reclaim runs one reclaim round and returns one clean buffer for the
// caller, restocking the rest — the single-page miss path.
func (c *shardedCache) reclaim(ctx *smp.Context) *Buf {
	var one [1]*Buf
	got := c.reclaimBulk(ctx, 1, one[:0])
	if len(got) == 0 {
		return nil
	}
	return got[0]
}

// reclaimBulk harvests least-recently-used inactive buffers, tears their
// mappings down, and retires every invalidation the teardown owes through
// the per-CPU shootdown queue — ONE ranged IPI round for the whole round
// instead of one round per mapping.  Mappings whose accessed bit is clear
// owe nothing (no TLB can cache an unaccessed translation), and accessed
// mappings owe only their tlbmask, so a CPU-private workload reclaims
// without interrupting anyone.  Up to want clean buffers are appended to
// into for the caller (the vectored path hands a whole batch's shortfall
// straight to the allocator instead of bouncing it through freelists);
// the surplus restocks the freelists.  The round harvests at least the
// configured ReclaimBatch so large wants keep the one-round amortization.
func (c *shardedCache) reclaimBulk(ctx *smp.Context, want int, into []*Buf) []*Buf {
	into, _ = c.reclaimScoped(ctx, want, into, false)
	return into
}

// reclaimScoped is reclaimBulk with a homing scope: under the homed
// layout the harvest sweeps the calling CPU's own socket group first —
// its victims were mapped by same-socket CPUs, so their teardown IPIs
// stay inside the package — and crosses to the other groups only when
// the local one runs dry (never when localOnly, the background daemon's
// mode: refill is an optimization, not a correctness obligation, so the
// daemon only does package-local work).  The striped layout rotates the
// hand over all stripes exactly as before.  harvested is the round's own
// victim count, whatever other CPUs reclaim meanwhile.
func (c *shardedCache) reclaimScoped(ctx *smp.Context, want int, into []*Buf, localOnly bool) (_ []*Buf, harvested int) {
	scratch := scratchPool.Get().(*reclaimScratch)
	defer func() {
		scratch.victims = scratch.victims[:0]
		scratch.vpns = scratch.vpns[:0]
		scratch.accessed = scratch.accessed[:0]
		scratch.selfVpns = scratch.selfVpns[:0]
		scratch.queueVpns = scratch.queueVpns[:0]
		scratch.queueMasks = scratch.queueMasks[:0]
		scratchPool.Put(scratch)
	}()
	goal := c.cfg.ReclaimBatch
	if want > goal {
		goal = want
	}
	victims := scratch.victims
	start := c.reclaimHand.Add(1)
	harvest := func(si uint64) {
		t := c.shards[si]
		c.chargeShardLock(ctx, si)
		t.mu.Lock()
		for len(victims) < goal {
			b := t.inactive.popHead()
			if b == nil {
				break
			}
			if b.page != nil {
				c.uninstall(t, b)
			}
			victims = append(victims, b)
		}
		t.mu.Unlock()
	}
	if !c.homed {
		for i := 0; i < len(c.shards) && len(victims) < goal; i++ {
			harvest((start + uint64(i)) % uint64(len(c.shards)))
		}
	} else {
		sock := ctx.Socket()
		per := uint64(c.shardsPer)
		for i := uint64(0); i < per && len(victims) < goal; i++ {
			harvest(uint64(sock)*per + (start+i)%per)
		}
		for g := 0; !localOnly && g < c.sockets && len(victims) < goal; g++ {
			if g == sock {
				continue
			}
			for i := uint64(0); i < per && len(victims) < goal; i++ {
				harvest(uint64(g)*per + (start+i)%per)
			}
		}
	}
	scratch.victims = victims
	if len(victims) == 0 {
		return into, 0
	}

	c.reclaims.Add(1)
	c.reclaimed.Add(uint64(len(victims)))
	c.teardownBatch(ctx, victims)

	keep := want
	if keep > len(victims) {
		keep = len(victims)
	}
	into = append(into, victims[:keep]...)
	surplus := len(victims) - keep
	if rest := victims[keep:]; len(rest) > 0 {
		// Spread the surplus across the freelists in the CPU's restock
		// order (our own first, same-socket siblings before remote ones
		// under Homed): each CPU's next misses then restock locally
		// instead of stealing through the sibling freelists lock by lock.
		ncpu := len(c.freelists)
		share := (len(rest) + ncpu - 1) / ncpu
		for _, fi := range c.spreadOf[ctx.CPUID()] {
			if len(rest) == 0 {
				break
			}
			f := c.freelists[fi]
			n := share
			if n > len(rest) {
				n = len(rest)
			}
			ctx.ChargeLockAt(c.cpuSock[fi])
			f.mu.Lock()
			if room := c.cfg.PerCPUFree - len(f.bufs); n > room {
				n = room
			}
			if n > 0 {
				f.bufs = append(f.bufs, rest[:n]...)
				rest = rest[n:]
			}
			f.mu.Unlock()
		}
		if len(rest) > 0 {
			pi := c.poolIdx(ctx)
			c.pool.mu.Lock()
			c.pool.socks[pi] = append(c.pool.socks[pi], rest...)
			c.pool.mu.Unlock()
		}
		c.bumpFreeN(surplus)
	}
	return into, len(victims)
}

// teardownBatch removes every victim's mapping in one page-table pass and
// retires the whole batch's invalidation debt at once: one batched local
// purge for the initiating CPU, the remote share queued per victim's
// tlbmask, and ONE forced flush — a single ranged IPI round for the whole
// batch.  The caller owns the victims exclusively (popped from their
// shards under their locks); on return each victim is clean, its cpumask
// truthfully "all processors", ready to restock.
func (c *shardedCache) teardownBatch(ctx *smp.Context, victims []*Buf) {
	scratch := scratchPool.Get().(*reclaimScratch)
	defer func() {
		scratch.vpns = scratch.vpns[:0]
		scratch.accessed = scratch.accessed[:0]
		scratch.selfVpns = scratch.selfVpns[:0]
		scratch.queueVpns = scratch.queueVpns[:0]
		scratch.queueMasks = scratch.queueMasks[:0]
		scratchPool.Put(scratch)
	}()
	all := c.m.AllCPUs()
	self := ctx.CPUID()

	vpns := scratch.vpns
	for _, b := range victims {
		vpns = append(vpns, pmap.VPN(b.kva))
	}
	accessed := c.pm.KRemoveBatch(ctx, vpns, scratch.accessed)
	selfVpns := scratch.selfVpns
	queueVpns, queueMasks := scratch.queueVpns, scratch.queueMasks
	for i, b := range victims {
		if accessed[i] || (c.ablate&AblateAccessedBit != 0 && b.page != nil) {
			mask := b.tlbmask
			if mask.Has(self) {
				selfVpns = append(selfVpns, vpns[i])
				mask = mask.Clear(self)
			}
			queueVpns = append(queueVpns, vpns[i])
			queueMasks = append(queueMasks, mask)
		}
		b.page = nil
		b.tlbmask = 0
		b.cpumask = all
	}
	ctx.InvalidateLocalRange(selfVpns)
	ctx.QueueShootdownBatch(queueMasks, queueVpns)
	scratch.vpns, scratch.accessed, scratch.selfVpns = vpns, accessed, selfVpns
	scratch.queueVpns, scratch.queueMasks = queueVpns, queueMasks
	// The forced flush: the virtual addresses are about to be reused, so
	// the queued invalidations must land now — in one IPI round.
	ctx.FlushShootdowns()
}

// teardown removes b's mapping and queues whatever invalidations the
// removal owes.  The caller owns b exclusively (popped from a shard under
// its lock) and must flush the shootdown queue before reusing b's address.
func (c *shardedCache) teardown(ctx *smp.Context, b *Buf) {
	if b.page == nil {
		b.tlbmask = 0
		return
	}
	vpn := pmap.VPN(b.kva)
	pte, ok := c.pm.Probe(b.kva)
	c.pm.KRemove(ctx, b.kva)
	if ok && (pte.Accessed || (c.ablate&AblateAccessedBit != 0 && pte.Valid)) {
		mask := b.tlbmask
		if mask.Has(ctx.CPUID()) {
			ctx.InvalidateLocal(vpn)
			mask = mask.Clear(ctx.CPUID())
		}
		ctx.QueueShootdown(mask, vpn)
	}
	b.page = nil
	b.tlbmask = 0
}

// free implements sf_buf_free: decrement, and at zero either park the
// buffer on its shard's inactive list with the mapping latently valid
// (the lazy-teardown default the cache's hit rate depends on) or, under
// AblateLazyTeardown, tear it down eagerly.
func (c *shardedCache) free(ctx *smp.Context, b *Buf) {
	ctx.Charge(ctx.Cost().MapperOp)
	if b.page == nil {
		// A referenced buffer always has a page; a clean one was
		// already freed (and since reclaimed).
		panic("sfbuf: free of unreferenced sf_buf")
	}
	s, _ := c.lockPage(ctx, b.page)
	parked, tear := c.unrefLocked(s, b)
	s.mu.Unlock()
	switch {
	case parked:
		c.bumpFreeN(1)
	case tear:
		// Eager teardown: retire the mapping's invalidation debt
		// immediately, restock as clean.
		c.teardown(ctx, b)
		ctx.FlushShootdowns()
		b.cpumask = c.m.AllCPUs()
		c.putClean(ctx, b)
	}
}

// unrefLocked drops one reference on b and counts the free.  At zero the
// buffer either parks on s's inactive list with its mapping latently
// valid (parked), or — under AblateLazyTeardown — leaves the hash for the
// caller to tear down (tear).  Caller holds s.mu, s being the shard of
// b's frame; a free of an unreferenced buffer unlocks it and panics.
func (c *shardedCache) unrefLocked(s *cacheShard, b *Buf) (parked, tear bool) {
	if b.ref <= 0 {
		s.mu.Unlock()
		panic("sfbuf: free of unreferenced sf_buf")
	}
	b.ref--
	s.frees++
	if b.ref > 0 {
		return false, false
	}
	if c.ablate&AblateLazyTeardown != 0 {
		c.uninstall(s, b)
		return false, true
	}
	s.inactive.pushTail(b)
	return true, false
}

// interruptWakeup wakes every sleeper — single-page sleepers and a
// registered batch claimer alike — so pending signals can be observed.
func (c *shardedCache) interruptWakeup() {
	c.pool.mu.Lock()
	c.pool.cond.Broadcast()
	c.claimCond.Broadcast()
	c.pool.mu.Unlock()
}

func (c *shardedCache) snapshotStats() Stats { return c.collectStats(false) }

func (c *shardedCache) resetStats() { c.collectStats(true) }

// collectStats sums every lock's share of the statistics, reading each
// under its own lock and, with reset, zeroing it in the same hold.
func (c *shardedCache) collectStats(reset bool) Stats {
	load := (*atomic.Uint64).Load
	if reset {
		load = func(a *atomic.Uint64) uint64 { return a.Swap(0) }
	}
	c.runs.mu.Lock()
	st := c.runs.led // the run path's Allocs, Hits, Misses, Frees and Run* counts
	if reset {
		c.runs.led = Stats{}
	}
	c.runs.mu.Unlock()
	st.WouldBlock, st.Reclaims, st.Reclaimed = load(&c.wouldBlock), load(&c.reclaims), load(&c.reclaimed)
	st.BatchAllocs, st.BatchFrees, st.BatchPages = load(&c.batchAllocs), load(&c.batchFrees), load(&c.batchPages)
	for _, s := range c.shards {
		s.mu.Lock()
		st.Allocs += s.allocs
		st.Hits += s.hits
		st.Misses += s.misses
		st.Frees += s.frees
		if reset {
			s.allocs, s.hits, s.misses, s.frees = 0, 0, 0, 0
		}
		s.mu.Unlock()
	}
	for _, f := range c.freelists {
		f.mu.Lock()
		st.FreelistAllocs += f.takes
		if reset {
			f.takes = 0
		}
		f.mu.Unlock()
	}
	c.pool.mu.Lock()
	st.FreelistAllocs += c.pool.takes
	st.Sleeps, st.Interrupted = c.pool.sleeps, c.pool.interrupted
	if reset {
		c.pool.takes, c.pool.sleeps, c.pool.interrupted = 0, 0, 0
	}
	c.pool.mu.Unlock()
	return st
}

// inactiveLen counts every unreferenced buffer: latently-valid buffers on
// the shard inactive lists plus clean buffers on the freelists and pool.
func (c *shardedCache) inactiveLen() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.inactive.n
		s.mu.Unlock()
	}
	for _, f := range c.freelists {
		f.mu.Lock()
		n += len(f.bufs)
		f.mu.Unlock()
	}
	c.pool.mu.Lock()
	for _, s := range c.pool.socks {
		n += len(s)
	}
	c.pool.mu.Unlock()
	return n
}

func (c *shardedCache) validMappings() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.valid
		s.mu.Unlock()
	}
	return n
}

func (c *shardedCache) lookupRef(frame uint64) (ref int, mask smp.CPUSet, ok bool) {
	s := c.shardFor(frame)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := c.table[frame]
	if b == nil {
		return 0, 0, false
	}
	return b.ref, b.cpumask, true
}

func (c *shardedCache) setAblate(a Ablation) { c.ablate = a }
