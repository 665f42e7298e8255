package sfbuf

import (
	"sync"

	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// bufList is the intrusive doubly-linked inactive list of Figure 1: head
// is the least recently used buffer (the replacement victim), tail the
// most recently freed.  A Buf on the list has a reference count of zero
// but may still represent a valid mapping — that latent validity is what
// the mapping cache exploits.
type bufList struct {
	head, tail *Buf
	n          int
}

func (l *bufList) pushTail(b *Buf) {
	if b.inList {
		panic("sfbuf: buffer already on inactive list")
	}
	b.inList = true
	b.prev = l.tail
	b.next = nil
	if l.tail != nil {
		l.tail.next = b
	} else {
		l.head = b
	}
	l.tail = b
	l.n++
}

func (l *bufList) remove(b *Buf) {
	if !b.inList {
		panic("sfbuf: removing buffer not on inactive list")
	}
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		l.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		l.tail = b.prev
	}
	b.prev, b.next = nil, nil
	b.inList = false
	l.n--
}

func (l *bufList) popHead() *Buf {
	b := l.head
	if b == nil {
		return nil
	}
	l.remove(b)
	return b
}

// Ablation selectively disables the design choices DESIGN.md section 5
// calls out, so their contribution can be measured in isolation.  All
// ablated variants remain TLB-coherent (the correctness tests run against
// them too); they just pay more.
type Ablation uint8

const (
	// AblateAccessedBit disables the accessed-bit optimization: every
	// reuse of a valid mapping is treated as potentially TLB-cached.
	AblateAccessedBit Ablation = 1 << iota
	// AblateSharing disables shared sf_bufs: every allocation takes a
	// fresh buffer even when the page is already mapped.
	AblateSharing
	// AblateLazyTeardown removes mappings eagerly when their reference
	// count drops to zero, instead of letting valid mappings linger on
	// the inactive list for reuse.
	AblateLazyTeardown
)

// mapCore is the contract between the I386 wrapper and a mapping-cache
// engine.  Two engines implement it: cache, the paper's global-lock
// design, and shardedCache, the lock-striped per-CPU design with batched
// teardown shootdowns.  Config.Cache picks one at boot.
type mapCore interface {
	alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error)
	free(ctx *smp.Context, b *Buf)
	allocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error)
	freeBatch(ctx *smp.Context, bufs []*Buf)
	allocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error)
	freeRun(ctx *smp.Context, r *Run)
	interruptWakeup()
	snapshotStats() Stats
	resetStats()
	inactiveLen() int
	validMappings() int
	lookupRef(frame uint64) (ref int, mask smp.CPUSet, ok bool)
	setAblate(a Ablation)
}

// cache is the i386 mapping cache of Section 4.2: "(1) a hash table of
// valid sf_bufs that is indexed by physical page and (2) an inactive list
// of unused sf_bufs that is maintained in least-recently-used order.  An
// sf_buf can appear in both structures simultaneously."
type cache struct {
	m     *smp.Machine
	pm    *pmap.Pmap
	total int // buffer count, the ceiling on any one batch

	mu       sync.Mutex
	cond     *sync.Cond
	hash     map[uint64]*Buf // physical frame -> valid sf_buf
	inactive bufList
	stats    Stats
	ablate   Ablation
}

func newCache(m *smp.Machine, pm *pmap.Pmap, vas []uint64) *cache {
	c := &cache{
		m:     m,
		pm:    pm,
		total: len(vas),
		hash:  make(map[uint64]*Buf, len(vas)),
	}
	c.cond = sync.NewCond(&c.mu)
	// "The inactive list is filled as follows: a range of kernel virtual
	// addresses is allocated by the ephemeral mapping module; for each
	// virtual page in this range, an sf_buf is created, its virtual
	// address initialized, and inserted into the inactive list."
	for _, va := range vas {
		b := &Buf{kva: va}
		c.inactive.pushTail(b)
	}
	return c
}

// alloc implements the i386 sf_buf_alloc algorithm of Section 4.2.
//
// Fidelity note: the paper's prose says that when the replaced mapping's
// accessed bit was clear "no TLB invalidations are issued and the cpumask
// is set to include all processors".  Taken literally that is unsound: a
// CPU may still cache a translation from an even earlier life of the
// virtual address (mapped, touched, then replaced as a CPU-private mapping
// of another CPU — no shootdown ever reached it).  Marking the mapping
// valid on such a CPU lets it read through the stale entry.  The
// implementation that actually shipped in FreeBSD retains the cpumask
// across reuse and only clears it when the replaced mapping had been
// accessed; CPUs absent from the mask then purge on first use, exactly as
// on the hash-hit path.  We implement the shipped semantics; the test
// TestProseMissPathIsUnsound demonstrates the corruption the prose version
// would allow, caught by this simulator's honest TLB model.
func (c *cache) alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error) {
	ctx.Charge(ctx.Cost().MapperOp)
	ctx.ChargeLock()

	c.mu.Lock()
	defer c.mu.Unlock()

	for {
		if b, ok := c.hash[page.Frame()]; ok && c.ablate&AblateSharing == 0 {
			// Cache hit: revive from the inactive list if unused,
			// then make the mapping valid for this caller.
			c.stats.Allocs++
			c.stats.Hits++
			if b.ref == 0 {
				c.inactive.remove(b)
			}
			b.ref++
			c.makeValid(ctx, b, flags)
			return b, nil
		}

		if b := c.inactive.popHead(); b != nil {
			c.stats.Allocs++
			c.stats.Misses++
			// "First, if the inactive sf_buf represents a valid
			// mapping ... it must be removed from the hash table."
			if b.page != nil {
				if cur, ok := c.hash[b.page.Frame()]; ok && cur == b {
					delete(c.hash, b.page.Frame())
				}
			}
			// "Second, the sf_buf's physical page pointer is
			// assigned ... the reference count is set to one, and
			// the sf_buf is inserted into the hash table."
			b.page = page
			b.ref = 1
			if c.ablate&AblateSharing == 0 {
				c.hash[page.Frame()] = b
			}
			// "Third, the page table entry for the sf_buf's virtual
			// address is changed to map the given physical page."
			oldValid, oldAccessed := c.pm.KEnter(ctx, b.kva, page)
			// Fourth: if the old mapping was accessed it may be
			// cached by TLBs, so no CPU's view is trustworthy any
			// longer.  If it was never accessed, the previous mask
			// remains exactly right (the accessed-bit optimization).
			if oldAccessed || (c.ablate&AblateAccessedBit != 0 && oldValid) {
				b.cpumask = 0
			}
			c.makeValid(ctx, b, flags)
			return b, nil
		}

		// The inactive list is empty: fail or sleep per the flags.
		if flags&NoWait != 0 {
			c.stats.WouldBlock++
			return nil, ErrWouldBlock
		}
		c.stats.Sleeps++
		c.cond.Wait()
		if flags&Catch != 0 && ctx.Interrupted() {
			c.stats.Interrupted++
			return nil, ErrInterrupted
		}
		// Re-run the whole lookup: while sleeping, the page may have
		// been mapped by another thread (hash hit now) or a buffer
		// may have been freed (miss path now succeeds).
	}
}

// makeValid brings b's mapping into a state the calling CPU may safely
// dereference, and widens it to all CPUs for shared mappings — FreeBSD's
// sf_buf_shootdown, shared by the hit and miss paths.
func (c *cache) makeValid(ctx *smp.Context, b *Buf, flags Flags) {
	vpn := pmap.VPN(b.kva)
	all := c.m.AllCPUs()
	if !b.cpumask.Has(ctx.CPUID()) {
		// This CPU's TLB may hold a stale entry for b.kva from an
		// earlier life of the mapping; purge it before use.
		ctx.InvalidateLocal(vpn)
		b.cpumask = b.cpumask.Set(ctx.CPUID())
	}
	if flags&Private == 0 && b.cpumask != all {
		ctx.Shootdown(all.Minus(b.cpumask), vpn)
		b.cpumask = all
	}
}

// free implements sf_buf_free: "decrements the sf_buf's reference count,
// inserting the sf_buf into the free list if the reference count becomes
// zero.  When an sf_buf is inserted into the free list, a sleeping
// sf_buf_alloc() is awakened."
func (c *cache) free(ctx *smp.Context, b *Buf) {
	ctx.Charge(ctx.Cost().MapperOp)
	ctx.ChargeLock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Frees++
	if b.ref <= 0 {
		panic("sfbuf: free of unreferenced sf_buf")
	}
	b.ref--
	if b.ref == 0 {
		if c.ablate&AblateLazyTeardown != 0 {
			// Eager teardown: the mapping dies with its last
			// reference.  Reading the accessed bit BEFORE removal is
			// what keeps this sound: an accessed mapping may live in
			// TLBs, so no CPU's view survives (the cpumask is
			// zeroed); KRemove then clears the PTE so the next reuse
			// sees an invalid, unaccessed entry.
			if pte, ok := c.pm.Probe(b.kva); ok && pte.Accessed {
				b.cpumask = 0
			}
			c.pm.KRemove(ctx, b.kva)
			if b.page != nil {
				if cur, ok := c.hash[b.page.Frame()]; ok && cur == b {
					delete(c.hash, b.page.Frame())
				}
				b.page = nil
			}
		}
		c.inactive.pushTail(b)
		c.cond.Signal()
	}
}

// allocBatch is the global-lock cache's vectored fallback: exactly one
// alloc per page, in order, so the engine's observable behaviour — and
// every cycle the cost model charges — is byte-identical whether a
// subsystem maps a run through this call or page by page.  The paper's
// design has nothing to amortize here (its bottleneck IS the one lock),
// which is why NativeBatch reports false for it and the converted
// subsystems leave it on their historical per-page paths.
func (c *cache) allocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	if len(pages) > c.total {
		return nil, ErrBatchTooLarge
	}
	bufs, err := c.allocEach(ctx, pages, flags)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.BatchAllocs++
	c.stats.BatchPages += uint64(len(pages))
	c.mu.Unlock()
	return bufs, nil
}

// allocEach maps pages with one alloc each, in order.  On failure it
// frees the prefix it mapped — charged as those frees always were — and
// uncounts it, so a failed batch or run moves only WouldBlock (and the
// prefix's Hits/Misses), the Stats ledger rule.
func (c *cache) allocEach(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	bufs := make([]*Buf, 0, len(pages))
	for _, pg := range pages {
		b, err := c.alloc(ctx, pg, flags)
		if err != nil {
			for _, prev := range bufs {
				c.free(ctx, prev)
			}
			c.mu.Lock()
			c.stats.Allocs -= uint64(len(bufs))
			c.stats.Frees -= uint64(len(bufs))
			c.mu.Unlock()
			return nil, err
		}
		bufs = append(bufs, b)
	}
	return bufs, nil
}

// freeBatch releases each buffer in order — the loop the per-page callers
// would have run themselves.
func (c *cache) freeBatch(ctx *smp.Context, bufs []*Buf) {
	if len(bufs) == 0 {
		return
	}
	for _, b := range bufs {
		c.free(ctx, b)
	}
	c.mu.Lock()
	c.stats.BatchFrees++
	c.mu.Unlock()
}

// allocRun is the global-lock cache's run fallback: the paper's design
// has no contiguous window to offer (its buffers' addresses are fixed at
// boot and scattered by reuse), so a run request degrades to exactly one
// alloc per page, in order — the same loop allocBatch runs, charged and
// counted identically, so figure reproduction on this engine is
// indifferent to whether a subsystem asked for a run, a batch, or pages.
// The returned run reports Contiguous() == false and consumers fall back
// to per-page translation, which is precisely what this engine's
// scattered mappings cost.
func (c *cache) allocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	if len(pages) > c.total {
		return nil, ErrBatchTooLarge
	}
	bufs, err := c.allocEach(ctx, pages, flags)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.RunAllocs++
	c.stats.RunPages += uint64(len(pages))
	c.mu.Unlock()
	return &Run{pages: append([]*vm.Page(nil), pages...), bufs: bufs, home: c}, nil
}

// freeRun releases a fallback run: one free per page, as the per-page
// callers would have run themselves.
func (c *cache) freeRun(ctx *smp.Context, r *Run) {
	if r.home != c || r.bufs == nil {
		panic("sfbuf: freeRun of a foreign or already-freed run")
	}
	for _, b := range r.bufs {
		c.free(ctx, b)
	}
	c.mu.Lock()
	c.stats.RunFrees++
	c.mu.Unlock()
	r.pages, r.bufs, r.home = nil, nil, nil
}

// interruptWakeup wakes all sleepers so those with a pending signal can
// observe it; it models signal delivery to threads blocked in
// sf_buf_alloc.
func (c *cache) interruptWakeup() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// snapshotStats returns a copy of the statistics.
func (c *cache) snapshotStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *cache) resetStats() {
	c.mu.Lock()
	c.stats = Stats{}
	c.mu.Unlock()
}

// inactiveLen reports the inactive list length; test helper.
func (c *cache) inactiveLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inactive.n
}

// validMappings reports the hash-table size; test helper.
func (c *cache) validMappings() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hash)
}

// setAblate disables the selected design choices; not safe concurrently
// with allocations.
func (c *cache) setAblate(a Ablation) { c.ablate = a }

// lookupRef returns the ref count and cpumask of the buf mapping frame,
// for invariant checks.
func (c *cache) lookupRef(frame uint64) (ref int, mask smp.CPUSet, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.hash[frame]
	if !ok {
		return 0, 0, false
	}
	return b.ref, b.cpumask, true
}
