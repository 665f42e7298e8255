package sfbuf

import (
	"fmt"

	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// DefaultI386Entries is the evaluation's default mapping-cache size:
// "the sf_buf kernel on a Xeon machine uses a cache of 64K entries of
// physical-to-virtual address mappings ... this cache can map a maximum
// footprint of 256 MB" (Section 6.2).
const DefaultI386Entries = 64 * 1024

// I386 is the 32-bit implementation of the ephemeral mapping interface
// (Section 4.2).  Kernel virtual address space is too small to map all of
// physical memory, so a configurable region is reserved at boot and
// managed as a cache of virtual-to-physical mappings indexed by physical
// page.
//
// Two cache engines implement the same interface: the paper's global-lock
// design (NewI386), kept byte-for-byte for figure reproduction and the
// protocol's unit tests, and the sharded per-CPU design with batched
// teardown shootdowns (NewI386Sharded) that removes the single mutex on
// large machines.
type I386 struct {
	c       mapCore
	name    string
	entries int
	base    uint64
}

var _ Mapper = (*I386)(nil)

// reserveVAs carves entries pages of kernel virtual address space out of
// the arena for a mapping cache.
func reserveVAs(arena *kva.Arena, entries int) (uint64, []uint64, error) {
	base, err := arena.Alloc(entries)
	if err != nil {
		return 0, nil, fmt.Errorf("sfbuf: reserving %d pages for the i386 mapping cache: %w", entries, err)
	}
	vas := make([]uint64, entries)
	for i := range vas {
		vas[i] = base + uint64(i)*vm.PageSize
	}
	return base, vas, nil
}

// NewI386 reserves entries pages of kernel virtual address space from the
// arena and builds the paper's global-lock mapping cache over them.
func NewI386(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, entries int) (*I386, error) {
	if entries <= 0 {
		entries = DefaultI386Entries
	}
	base, vas, err := reserveVAs(arena, entries)
	if err != nil {
		return nil, err
	}
	return &I386{c: newCache(m, pm, vas), name: "sf_buf/i386", entries: entries, base: base}, nil
}

// NewI386Sharded builds the same mapping cache on the sharded engine:
// lock-striped shards, per-CPU clean freelists, and batched teardown
// shootdowns.  cfg zero values derive sensible defaults.
func NewI386Sharded(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, entries int, cfg ShardedConfig) (*I386, error) {
	if entries <= 0 {
		entries = DefaultI386Entries
	}
	base, vas, err := reserveVAs(arena, entries)
	if err != nil {
		return nil, err
	}
	return &I386{
		c:       newShardedCache(m, pm, arena, vas, cfg),
		name:    "sf_buf/i386-sharded",
		entries: entries,
		base:    base,
	}, nil
}

// Alloc implements sf_buf_alloc for i386.
func (s *I386) Alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error) {
	return s.c.alloc(ctx, page, flags)
}

// Free implements sf_buf_free for i386.
func (s *I386) Free(ctx *smp.Context, b *Buf) {
	s.c.free(ctx, b)
}

// AllocBatch implements the vectored alloc: a native fast path on the
// sharded engine, a semantics-preserving loop on the paper's cache.
func (s *I386) AllocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	return s.c.allocBatch(ctx, pages, flags)
}

// FreeBatch implements the vectored free.
func (s *I386) FreeBatch(ctx *smp.Context, bufs []*Buf) {
	s.c.freeBatch(ctx, bufs)
}

// AllocRun implements the contiguous-run alloc: a reserved VA window
// populated in one page-table pass on the sharded engine, a scattered
// loop-identical fallback on the paper's cache.
func (s *I386) AllocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error) {
	return s.c.allocRun(ctx, pages, flags)
}

// FreeRun releases a contiguous run as a unit.
func (s *I386) FreeRun(ctx *smp.Context, r *Run) {
	s.c.freeRun(ctx, r)
}

// nativeBatch reports whether the underlying engine amortizes vectored
// requests (the sharded engine does; the global-lock cache loops).
func (s *I386) nativeBatch() bool {
	_, ok := s.c.(*shardedCache)
	return ok
}

// nativeRun reports whether AllocRun returns genuinely contiguous
// windows (the sharded engine's reserved-window path).
func (s *I386) nativeRun() bool {
	_, ok := s.c.(*shardedCache)
	return ok
}

// RunWindowStats reports the sharded engine's run-window pool counters;
// zero for the global-lock engine, which has no window pool.
func (s *I386) RunWindowStats() RunWindowStats {
	if sc, ok := s.c.(*shardedCache); ok {
		return sc.runs.snapshot()
	}
	return RunWindowStats{}
}

// LaunderRunWindows forces a run-window laundering round on the sharded
// engine: every parked (revivable) window's deferred teardown is retired
// in one shootdown flush and the windows become clean stock.  A no-op on
// the global-lock engine.  Tests and benchmarks use it to drain the
// page-set window cache deterministically between phases.
func (s *I386) LaunderRunWindows(ctx *smp.Context) {
	if sc, ok := s.c.(*shardedCache); ok {
		sc.launderRunWindows(ctx)
	}
}

// Name implements Mapper.
func (s *I386) Name() string { return s.name }

// Stats implements Mapper.
func (s *I386) Stats() Stats { return s.c.snapshotStats() }

// ResetStats implements Mapper.
func (s *I386) ResetStats() { s.c.resetStats() }

// Entries returns the cache capacity in mappings.
func (s *I386) Entries() int { return s.entries }

// InactiveLen returns the current unreferenced-buffer count (test helper).
func (s *I386) InactiveLen() int { return s.c.inactiveLen() }

// ValidMappings returns the number of live hash-table entries (test
// helper).
func (s *I386) ValidMappings() int { return s.c.validMappings() }

// LookupRef exposes a mapping's reference count and cpumask for invariant
// checks.
func (s *I386) LookupRef(page *vm.Page) (ref int, mask smp.CPUSet, ok bool) {
	return s.c.lookupRef(page.Frame())
}

// InterruptWakeup wakes threads sleeping in Alloc so pending signals can
// be observed; it models signal delivery.
func (s *I386) InterruptWakeup() { s.c.interruptWakeup() }

// Ablate disables the selected design choices of the paper's global-lock
// cache for ablation studies; pass 0 to restore the full design.  Must be
// called before use, not concurrently with allocations.  The sharded
// engine has no ablated variants: Ablate on it panics.
func (s *I386) Ablate(a Ablation) {
	c, ok := s.c.(*cache)
	if !ok {
		panic(fmt.Sprintf("sfbuf: Ablate applies to the global-lock cache only, not %s", s.name))
	}
	c.ablate = a
}
