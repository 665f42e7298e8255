// Package sfbuf implements the paper's contribution: the sf_buf ephemeral
// mapping interface (Table 1) and its machine-dependent implementations.
//
// The interface combines two actions that kernels historically performed
// through separate interfaces — allocating a temporary kernel virtual
// address and installing a virtual-to-physical translation — so that an
// implementation may reuse existing mappings and avoid TLB coherence
// traffic.  Three implementations are provided:
//
//   - I386 (Section 4.2): a mapping cache over a bounded kernel VA region —
//     a hash table of valid mappings indexed by physical page, an LRU
//     inactive list whose entries may still be valid, a per-mapping cpumask,
//     and the accessed-bit optimization.
//   - AMD64 (Section 4.3): the direct map makes every operation trivial;
//     an sf_buf is just a view of the vm_page and nothing ever invalidates.
//   - Original: the pre-sf_buf baseline — every mapping allocates a fresh
//     kernel virtual address and every unmapping performs a global TLB
//     invalidation.  Every evaluation figure compares against it.
//
// Section 4.4's color-constrained hybrid is not reproduced: nothing in
// this repository maps a page at a user-level cache color, so it would
// only ever run the AMD64 direct map (docs/ARCHITECTURE.md).
package sfbuf

import (
	"errors"

	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Flags modify sf_buf_alloc behaviour (Section 4.1).
type Flags uint8

const (
	// Private marks the mapping as for the private use of the calling
	// thread: implementations may skip remote TLB invalidations because
	// no other CPU will ever dereference the returned address.
	Private Flags = 1 << iota
	// NoWait forbids sleeping: when no sf_buf is available Alloc
	// returns ErrWouldBlock instead of waiting.
	NoWait
	// Catch makes a sleeping Alloc interruptible by a signal, in which
	// case it returns ErrInterrupted.  It has no effect when NoWait is
	// also given, matching the paper's rule.
	Catch
)

// Errors returned by Alloc.
var (
	// ErrWouldBlock reports that no sf_buf was available and NoWait
	// forbade sleeping (the paper's NULL return).
	ErrWouldBlock = errors.New("sfbuf: no buffers available")
	// ErrInterrupted reports that an interruptible sleep was broken by
	// a signal (the paper's NULL return under "interruptible").
	ErrInterrupted = errors.New("sfbuf: sleep interrupted by signal")
	// ErrBatchTooLarge reports an AllocBatch request for more pages than
	// the mapping cache holds buffers: such a batch could never be
	// satisfied and sleeping for it would deadlock.
	ErrBatchTooLarge = errors.New("sfbuf: batch exceeds mapping-cache capacity")
)

// Buf is an ephemeral mapping object — the sf_buf.  The paper keeps it
// entirely opaque; here only the two accessor methods of Table 1 are
// exported.  The unexported fields mirror Figure 1's struct sf_buf: the
// mapped page, the immutable kernel virtual address, a reference count, a
// cpumask, and the inactive-list linkage.  The hash chain of Figure 1 is a
// Go map in this implementation.
type Buf struct {
	kva  uint64
	page *vm.Page

	// i386 mapping-cache state, owned by the cache's lock (for
	// the sharded cache: the lock of the shard the buf is currently
	// homed in, or exclusively by the holder while the buf is clean).
	ref     int
	cpumask smp.CPUSet
	// tlbmask is maintained only by the sharded cache: the CPUs that may
	// have pulled this mapping's translation into their TLBs during its
	// current life (the allocating CPU for Private mappings, every CPU
	// for shared ones).  It is the precise target set for the batched
	// teardown shootdown.
	tlbmask smp.CPUSet
	prev    *Buf // inactive list linkage (Figure 1's free_entry)
	next    *Buf
	inList  bool
}

// KVA returns the kernel virtual address at which the mapping's page is
// addressable — sf_buf_kva().
func (b *Buf) KVA() uint64 { return b.kva }

// Page returns the physical page mapped by the buffer — sf_buf_page().
func (b *Buf) Page() *vm.Page { return b.page }

// Run is a contiguous multi-page ephemeral mapping: one request whose
// pages are addressable through a single virtual window, so a copy can
// sweep across page boundaries and the ranged-translate cost model
// (pmap.TranslateRun) charges one page-table walk per contiguous PTE run
// instead of one per page.  An engine that cannot provide contiguity (the
// paper's global-lock cache) returns a degraded run over scattered
// per-page mappings; Contiguous reports which, and KVA(i) addresses page
// i correctly either way.
//
// A Run must be released as a unit through FreeRun on the mapper that
// allocated it.
type Run struct {
	pages  []*vm.Page
	base   uint64 // KVA of page 0 when contiguous
	contig bool
	bufs   []*Buf // per-page mappings, for engines that build runs from them
	views  []Buf  // lazily built per-page views of a window-backed run

	// Engine-private state.
	mask   smp.CPUSet     // CPUs that may cache the window's translations
	tokens *extentScratch // sharded engine: clean buffers claimed as capacity
	win    *runWindow     // window-backed runs: the reserved VA window
	home   mapCore        // owning cache core, when window-backed
}

// Len returns the run's length in pages.
func (r *Run) Len() int { return len(r.pages) }

// Pages returns the mapped pages in order.  Callers must not modify the
// slice, and it is valid only until FreeRun: a window-backed run's slice
// belongs to its window, which the next run to take the window reuses.
// A freed run's Pages is empty.
func (r *Run) Pages() []*vm.Page { return r.pages }

// Contiguous reports whether the run occupies one consecutive virtual
// window (Base is then valid and ranged translation applies).
func (r *Run) Contiguous() bool { return r.contig }

// Base returns the kernel virtual address of the run's first page.  It
// panics on a non-contiguous run, where no single window exists; use
// KVA(i) or Bufs there.
func (r *Run) Base() uint64 {
	if !r.contig {
		panic("sfbuf: Base of a non-contiguous run")
	}
	return r.base
}

// KVA returns the kernel virtual address of the run's i'th page:
// base + i*PageSize on a contiguous run, the page's own mapping otherwise.
func (r *Run) KVA(i int) uint64 {
	if r.contig {
		return r.base + uint64(i)*vm.PageSize
	}
	return r.bufs[i].KVA()
}

// Bufs returns per-page Buf views of the run, for consumers that attach
// individual pages to longer-lived structures (mbuf externals).  On
// engines that build runs from per-page mappings they are the real Bufs;
// on window-backed runs they are synthetic views carrying each page's
// window address.  Either way they must NOT be passed to Free/FreeBatch —
// a run is released only through FreeRun — and they are valid only until
// that FreeRun: afterwards a view's address may map another run's page.
func (r *Run) Bufs() []*Buf {
	if r.bufs != nil {
		return r.bufs
	}
	if r.views == nil {
		r.views = make([]Buf, len(r.pages))
		for i, pg := range r.pages {
			r.views[i] = Buf{kva: r.base + uint64(i)*vm.PageSize, page: pg}
		}
	}
	out := make([]*Buf, len(r.views))
	for i := range r.views {
		out[i] = &r.views[i]
	}
	return out
}

// Stats counts mapper events.  Hits and Misses describe the mapping cache
// (Section 6.5.2 reports cache hit rates); Sleeps counts blocked
// allocations; VAAllocs counts trips to the general-purpose kernel virtual
// address allocator, which only the original kernel takes per-mapping.
//
// Ledger semantics: Allocs counts pages successfully mapped — by Alloc,
// AllocBatch, or AllocRun — and Frees pages released, so Allocs == Frees
// after a drain.  A failed NoWait attempt counts only in WouldBlock,
// whether it was a single page, a batch, or a run — on every engine, even
// when a batch fails mid-way and unwinds the pages it had mapped (their
// hits, misses and other events still count).  (The seed counted
// failed single-page NoWait attempts in Allocs but failed batches not at
// all; FuzzBatchOps caught the asymmetry and this is the unified rule.)
type Stats struct {
	Allocs      uint64
	Frees       uint64
	Hits        uint64
	Misses      uint64
	Sleeps      uint64
	Interrupted uint64
	WouldBlock  uint64
	VAAllocs    uint64

	// Sharded-cache events; zero for the paper's global-lock cache.
	// FreelistAllocs counts misses served by a clean buffer from the
	// allocating CPU's freelist or the overflow pool without touching
	// any shard's inactive list; Reclaims counts batched teardown rounds
	// and Reclaimed the buffers those rounds recycled.
	FreelistAllocs uint64
	Reclaims       uint64
	Reclaimed      uint64

	// Vectored-path events: BatchAllocs and BatchFrees count AllocBatch
	// and FreeBatch calls, BatchPages the pages those calls moved.  The
	// per-page Allocs/Frees above include batched pages, so the batch
	// fraction of a workload is BatchPages / Allocs.
	BatchAllocs uint64
	BatchFrees  uint64
	BatchPages  uint64

	// Contiguous-run events: RunAllocs/RunFrees count AllocRun/FreeRun
	// calls and RunPages the pages they moved.  Run pages are included in
	// Allocs/Frees like batch pages.  On the original kernel a run IS a
	// pmap_qenter batch, so its batch counters increment alongside.
	RunAllocs uint64
	RunFrees  uint64
	RunPages  uint64

	// Page-set window cache events (sharded engine only): RunRevives
	// counts AllocRun calls served by reviving a parked dirty window
	// whose installed frame extent matched the request — no PTE writes,
	// no shootdown debt, the run-path analogue of a hash hit (revived
	// pages count in Hits); RunReviveMisses counts AllocRun calls that
	// installed a window cold (their pages count in Misses).
	RunRevives      uint64
	RunReviveMisses uint64
}

// HitRate returns the mapping-cache hit rate in [0, 1], or 0 when no
// allocations occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Mapper is the machine-independent ephemeral mapping interface of
// Table 1, extended with the vectored calls AllocBatch and FreeBatch.
// Alloc is sf_buf_alloc, Free is sf_buf_free; the two remaining functions
// of the table are methods on Buf.
//
// The vectored calls map or unmap a run of pages as one request, the way
// the original kernel's pmap_qenter and pmap_qremove handle a multi-page
// buffer.  Their batching leverage is engine-specific: the original
// kernel performs one virtual-address allocation and one ranged TLB
// shootdown per run; the sharded cache takes one shard-lock round per
// shard per batch, restocks clean buffers with bulk freelist pops, and
// retires the whole batch's teardown debt in a single queued shootdown
// flush; the paper's global-lock cache runs a semantics-preserving loop,
// so figure reproduction on it stays byte-identical to the per-page path.
// NativeBatch reports which of these a mapper provides.
type Mapper interface {
	// Alloc returns an sf_buf mapping the given physical page.  An
	// implementation may return the same Buf to multiple callers mapping
	// the same page; the mapping remains valid until every caller has
	// called Free.
	Alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error)
	// Free releases one reference to the mapping.
	Free(ctx *smp.Context, b *Buf)
	// AllocBatch maps every page of the run, returning one Buf per page
	// in order.  The returned addresses need not be contiguous (only the
	// original kernel's 64-bit path guarantees a consecutive run), and
	// duplicate pages in one batch may share a Buf on engines that share
	// mappings.  On error no page of the batch remains mapped.
	AllocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error)
	// FreeBatch releases one reference to every mapping of the batch.
	// A batch obtained from AllocBatch must be released through
	// FreeBatch as a unit: the original kernel recycles the run's
	// address range whole.  Cache engines additionally accept any
	// combination of single and batched bufs.
	FreeBatch(ctx *smp.Context, bufs []*Buf)
	// AllocRun maps the pages at consecutive virtual addresses when the
	// engine can provide contiguity: the sharded cache installs the whole
	// run into a reserved VA window in one page-table pass, the amd64
	// direct map hands out the window physical contiguity already gives
	// it, the original kernel's 64-bit pmap_qenter path is contiguous by
	// construction.  An engine without a contiguous path (the paper's
	// global-lock cache) returns a degraded run over scattered mappings —
	// Run.Contiguous reports which.  Window-backed
	// runs give duplicate pages independent translations; fallback runs
	// may share mappings, as AllocBatch does.
	AllocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error)
	// FreeRun releases a run as a unit: one bulk page-table teardown and
	// at most one queued shootdown flush for the whole window.
	FreeRun(ctx *smp.Context, r *Run)
	// Name identifies the implementation for reports.
	Name() string
	// Stats returns cumulative mapper statistics.
	Stats() Stats
	// ResetStats zeroes the statistics.
	ResetStats()
}

// nativeBatcher is implemented by mappers whose vectored path is a
// genuine fast path rather than a semantics-preserving loop.
type nativeBatcher interface {
	nativeBatch() bool
}

// NativeBatch reports whether m's AllocBatch/FreeBatch amortize work
// across the run — fewer lock round trips, bulk page-table passes, or
// coalesced shootdowns — rather than looping over the single-page calls.
// The kernel asks it once at boot (kernel.Plan.Batch) to decide whether
// mapping a multi-page extent as a batch buys anything; the paper's
// global-lock cache reports false so the figure-reproduction experiments
// keep their exact per-page behaviour.
func NativeBatch(m Mapper) bool {
	nb, ok := m.(nativeBatcher)
	return ok && nb.nativeBatch()
}

// nativeRunner is implemented by mappers whose AllocRun returns a
// genuinely contiguous window rather than a scattered fallback.
type nativeRunner interface {
	nativeRun() bool
}

// NativeRun reports whether m's AllocRun provides contiguous windows —
// the sharded cache's reserved-window path, the amd64 direct map.  The
// kernel asks it once at boot, for the sf_buf kernel only (kernel.Plan.Runs,
// under the Contig switch), to decide whether mapping a multi-page extent
// as a run buys ranged translation.  The paper's global-lock cache reports
// false, so figure reproduction keeps its exact historical paths; so does
// the original kernel, every figure's baseline, although its 64-bit
// pmap_qenter range is contiguous (Run.Contiguous reports that per run).
func NativeRun(m Mapper) bool {
	nr, ok := m.(nativeRunner)
	return ok && nr.nativeRun()
}
