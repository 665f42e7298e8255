package sfbuf

import (
	"fmt"
	"sync"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Original is the pre-sf_buf baseline that every evaluation figure
// compares against: "Under the original kernel, the machine independent
// code always allocates a virtual address for creating an ephemeral
// mapping" (Section 6.2).  Each Alloc pays the general-purpose kernel
// virtual-address allocator and installs a fresh translation; each Free
// tears the translation down with an unconditional global TLB invalidation
// (a local invalidation plus, on multiprocessor kernels, a shootdown to
// every other CPU), because the address is about to be recycled for an
// unrelated mapping.
//
// It runs on both architectures — on amd64 it ignores the direct map just
// as FreeBSD's machine-independent code did, which is why the paper's
// Opteron results improve even though that machine needs no mapping cache.
type Original struct {
	m     *smp.Machine
	pm    *pmap.Pmap
	arena *kva.Arena

	mu    sync.Mutex
	stats Stats
	// spare is a LIFO of released handles, guarded by mu: Alloc and the
	// 64-bit AllocBatch pop from it, Free and FreeBatch push onto it, so
	// it never holds more than the peak number of outstanding mappings.
	// The simulated kernel allocates nothing here; recycling keeps Go's
	// heap out of the per-mapping host cost.
	spare []*Buf
}

var _ Mapper = (*Original)(nil)

// NewOriginal builds the baseline mapper drawing addresses from arena.
func NewOriginal(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) *Original {
	return &Original{m: m, pm: pm, arena: arena}
}

// Alloc allocates a fresh kernel virtual address and maps the page at it.
// Flags are accepted for interface compatibility but confer no benefit:
// the original kernel had no notion of a CPU-private ephemeral mapping.
func (o *Original) Alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error) {
	ctx.ChargeLock()
	ctx.Charge(ctx.Cost().KVAAlloc)
	va, err := o.arena.Alloc(1)
	if err != nil {
		if flags&NoWait != 0 {
			o.mu.Lock()
			o.stats.WouldBlock++
			o.mu.Unlock()
			return nil, ErrWouldBlock
		}
		return nil, fmt.Errorf("sfbuf: original mapper out of KVA: %w", err)
	}
	o.pm.KEnter(ctx, va, page)
	// The fresh translation needs no invalidation: the global shootdown
	// performed when this address was last freed guarantees no TLB holds
	// a stale entry for it.
	o.mu.Lock()
	o.stats.Allocs++
	o.stats.Misses++
	o.stats.VAAllocs++
	b := o.popLocked()
	o.mu.Unlock()
	b.kva, b.page = va, page
	return b, nil
}

// popLocked takes a released handle off the LIFO, or a fresh one when it
// is empty.  Callers hold o.mu.
func (o *Original) popLocked() *Buf {
	n := len(o.spare)
	if n == 0 {
		return &Buf{}
	}
	b := o.spare[n-1]
	o.spare[n-1] = nil
	o.spare = o.spare[:n-1]
	return b
}

// checkLive panics on a handle that is already released, before the
// caller charges anything or touches the pmap or the arena: a double free
// would otherwise tear down whatever mapping now holds the address, and
// push the handle onto the LIFO twice.
func checkLive(b *Buf) {
	if b.page == nil {
		panic("sfbuf: original mapper: free of an already-freed buffer")
	}
}

// Free unmaps the page, performs the global TLB invalidation, and returns
// the virtual address to the allocator.
func (o *Original) Free(ctx *smp.Context, b *Buf) {
	checkLive(b)
	ctx.ChargeLock()
	o.pm.KRemove(ctx, b.kva)
	ctx.InvalidateGlobal(pmap.VPN(b.kva))
	ctx.Charge(ctx.Cost().KVAFree)
	o.arena.Free(b.kva)
	b.page = nil
	o.mu.Lock()
	o.stats.Frees++
	o.spare = append(o.spare, b)
	o.mu.Unlock()
}

// AllocBatch maps a run of pages at consecutive virtual addresses with a
// single address allocation, like pmap_qenter over a kmem_alloc_nofault
// range.  The per-page PTE store performs a local invlpg (the historical
// pmap_kenter behaviour); no remote traffic happens at map time because
// the range's previous unmapping already shot it down globally.
//
// Calibration note: batching applies only on 64-bit architectures.  The
// amd64 pmap (written in 2003) performed ranged invalidations for bulk
// unmappings, while the older i386 pmap invalidated page by page; the
// paper's measured pipe and disk-dump ratios (Xeon +129%..168% vs Opteron
// +22%..37%) are only reproducible with exactly that split, so the i386
// baseline routes batch requests through the per-page path.
func (o *Original) AllocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	if o.m.Plat.Arch == arch.I386 {
		bufs := make([]*Buf, 0, len(pages))
		for _, pg := range pages {
			b, err := o.Alloc(ctx, pg, flags)
			if err != nil {
				// Unwind the prefix; a failed batch counts only in
				// WouldBlock (and the prefix's Misses and VAAllocs).
				for _, prev := range bufs {
					o.Free(ctx, prev)
				}
				o.mu.Lock()
				o.stats.Allocs -= uint64(len(bufs))
				o.stats.Frees -= uint64(len(bufs))
				o.mu.Unlock()
				return nil, err
			}
			bufs = append(bufs, b)
		}
		o.mu.Lock()
		o.stats.BatchAllocs++
		o.stats.BatchPages += uint64(len(pages))
		o.mu.Unlock()
		return bufs, nil
	}
	ctx.ChargeLock()
	ctx.Charge(ctx.Cost().KVAAlloc)
	base, err := o.arena.Alloc(len(pages))
	if err != nil {
		if flags&NoWait != 0 {
			o.mu.Lock()
			o.stats.WouldBlock++
			o.mu.Unlock()
			return nil, ErrWouldBlock
		}
		return nil, fmt.Errorf("sfbuf: original mapper out of KVA: %w", err)
	}
	for i, pg := range pages {
		va := base + uint64(i)*vm.PageSize
		o.pm.KEnter(ctx, va, pg)
		ctx.InvalidateLocal(pmap.VPN(va))
	}
	bufs := make([]*Buf, len(pages))
	o.mu.Lock()
	for i, pg := range pages {
		b := o.popLocked()
		b.kva, b.page = base+uint64(i)*vm.PageSize, pg
		bufs[i] = b
	}
	o.stats.Allocs += uint64(len(pages))
	o.stats.Misses += uint64(len(pages))
	o.stats.VAAllocs++
	o.stats.BatchAllocs++
	o.stats.BatchPages += uint64(len(pages))
	o.mu.Unlock()
	return bufs, nil
}

// FreeBatch unmaps the run with per-page local invalidations and ONE
// ranged remote shootdown — pmap_qremove followed by a ranged
// invalidation.  The batch must have come from AllocBatch.
func (o *Original) FreeBatch(ctx *smp.Context, bufs []*Buf) {
	if len(bufs) == 0 {
		return
	}
	for _, b := range bufs {
		checkLive(b)
	}
	if o.m.Plat.Arch == arch.I386 {
		for _, b := range bufs {
			o.Free(ctx, b)
		}
		o.mu.Lock()
		o.stats.BatchFrees++
		o.mu.Unlock()
		return
	}
	ctx.ChargeLock()
	vpns := make([]uint64, len(bufs))
	for i, b := range bufs {
		o.pm.KRemove(ctx, b.kva)
		ctx.InvalidateLocal(pmap.VPN(b.kva))
		vpns[i] = pmap.VPN(b.kva)
		b.page = nil
	}
	ctx.ShootdownRange(o.m.AllCPUs(), vpns)
	ctx.Charge(ctx.Cost().KVAFree)
	o.arena.Free(bufs[0].kva)
	o.mu.Lock()
	o.stats.Frees += uint64(len(bufs))
	o.stats.BatchFrees++
	o.spare = append(o.spare, bufs...)
	o.mu.Unlock()
}

// AllocRun rides the batch machinery: on 64-bit pmaps AllocBatch already
// allocates one consecutive virtual range and maps it with pmap_qenter,
// which IS a contiguous run, so the result is promoted to one; the i386
// baseline's per-page loop yields a scattered run.  Batch counters
// increment alongside the run counters, because here a run literally is
// a batch.
func (o *Original) AllocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	bufs, err := o.AllocBatch(ctx, pages, flags)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.stats.RunAllocs++
	o.stats.RunPages += uint64(len(pages))
	o.mu.Unlock()
	run := &Run{pages: append([]*vm.Page(nil), pages...), bufs: bufs}
	if o.m.Plat.Arch != arch.I386 {
		run.contig = true
		run.base = bufs[0].KVA()
	}
	return run, nil
}

// FreeRun unmaps the run through FreeBatch: per-page global invalidations
// on i386, one ranged shootdown for the whole range on 64-bit pmaps.
func (o *Original) FreeRun(ctx *smp.Context, r *Run) {
	if r.bufs == nil {
		panic("sfbuf: freeRun of a foreign or already-freed run")
	}
	o.FreeBatch(ctx, r.bufs)
	o.mu.Lock()
	o.stats.RunFrees++
	o.mu.Unlock()
	r.pages, r.bufs = nil, nil
}

// nativeBatch: pmap_qenter semantics — one virtual-address allocation and
// one ranged shootdown per run — are the original kernel's whole batching
// story (on 64-bit pmaps; the i386 pmap loops, see AllocBatch).
func (o *Original) nativeBatch() bool { return true }

var _ nativeBatcher = (*Original)(nil)

// Name implements Mapper.
func (o *Original) Name() string { return "original" }

// Stats implements Mapper.
func (o *Original) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// ResetStats implements Mapper.
func (o *Original) ResetStats() {
	o.mu.Lock()
	o.stats = Stats{}
	o.mu.Unlock()
}
