package sfbuf

import (
	"fmt"
	"sync/atomic"

	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Sparc64 is the hybrid implementation sketched in Section 4.4.  The
// architecture has a 64-bit address space and therefore a direct map, but
// its virtually-indexed, virtually-tagged cache requires that all
// simultaneous mappings of a physical page share a cache color (the low
// bits of the virtual page number), or caching must be disabled.
//
// The implementation therefore checks color compatibility:
//
//   - If the page has no user-level mapping, or its user mapping's color
//     matches the direct map's color for that page, the permanent direct
//     mapping is used — the amd64 fast path.
//   - Otherwise a virtual address of the required color is taken from a
//     per-color mapping cache managed exactly like the i386 implementation.
type Sparc64 struct {
	m         *smp.Machine
	pm        *pmap.Pmap
	numColors int
	colors    []mapCore

	directAllocs atomic.Uint64
	directFrees  atomic.Uint64

	// Batch statistics live at the hybrid level: one AllocBatch call is
	// one batch regardless of how many per-color sub-batches (or
	// direct-map casts) serve it, so the per-color engines' own batch
	// counters are ignored by Stats.
	batchAllocs atomic.Uint64
	batchFrees  atomic.Uint64
	batchPages  atomic.Uint64

	runAllocs atomic.Uint64
	runFrees  atomic.Uint64
	runPages  atomic.Uint64

	// undone counts color-engine pages a failed AllocBatch mapped and
	// unwound; Stats takes them back out of the engines' Allocs and Frees.
	undone atomic.Uint64
}

var _ Mapper = (*Sparc64)(nil)

// NewSparc64 builds the hybrid mapper with entriesPerColor cache slots for
// each of numColors virtual cache colors, using the paper's global-lock
// cache per color.  numColors must be a power of two (it is a bitmask over
// virtual page numbers).
func NewSparc64(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, numColors, entriesPerColor int) (*Sparc64, error) {
	return newSparc64(m, pm, arena, numColors, entriesPerColor, func(vas []uint64) mapCore {
		return newCache(m, pm, vas)
	})
}

// NewSparc64Sharded builds the hybrid mapper with one sharded cache per
// color — the per-color striping the paper already mandates, multiplied by
// the lock striping and batched shootdowns of the sharded engine.
func NewSparc64Sharded(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, numColors, entriesPerColor int, cfg ShardedConfig) (*Sparc64, error) {
	return newSparc64(m, pm, arena, numColors, entriesPerColor, func(vas []uint64) mapCore {
		return newShardedCache(m, pm, arena, vas, cfg)
	})
}

func newSparc64(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena, numColors, entriesPerColor int, mk func(vas []uint64) mapCore) (*Sparc64, error) {
	if numColors <= 0 || numColors&(numColors-1) != 0 {
		return nil, fmt.Errorf("sfbuf: numColors %d is not a power of two", numColors)
	}
	if entriesPerColor <= 0 {
		entriesPerColor = 1024
	}
	base, err := arena.Alloc(numColors * entriesPerColor)
	if err != nil {
		return nil, fmt.Errorf("sfbuf: reserving sparc64 color caches: %w", err)
	}
	// The reserved region is color-striped: virtual page i has color
	// i % numColors, so each cache gets every numColors-th page, keeping
	// each cache's addresses all of one color.
	s := &Sparc64{m: m, pm: pm, numColors: numColors, colors: make([]mapCore, numColors)}
	baseVPN := pmap.VPN(base)
	for color := 0; color < numColors; color++ {
		var vas []uint64
		for i := 0; i < entriesPerColor; i++ {
			vpn := baseVPN + uint64(i*numColors)
			// Align the stripe so vpn's color matches.
			offset := (uint64(color) - vpn) & uint64(numColors-1)
			vas = append(vas, (vpn+offset)<<vm.PageShift)
		}
		s.colors[color] = mk(vas)
	}
	return s, nil
}

// pageColor is the color the direct map would give the page: the direct
// map is linear in physical addresses, so the color is determined by the
// frame number.
func (s *Sparc64) pageColor(page *vm.Page) int {
	return int(pmap.VPN(pmap.DirectMapBase+uint64(page.PA())) & uint64(s.numColors-1))
}

// Alloc returns a direct-map buffer when colors permit, otherwise a
// color-compatible cached mapping.
func (s *Sparc64) Alloc(ctx *smp.Context, page *vm.Page, flags Flags) (*Buf, error) {
	want := page.UserColor
	if want < 0 || want == s.pageColor(page) {
		// "The permanent, one-to-one, virtual-to-physical mapping is
		// used when its color is compatible with the color of the
		// user-level address space mappings for the physical page."
		s.directAllocs.Add(1)
		return &Buf{kva: s.pm.DirectVA(page), page: page}, nil
	}
	// "Otherwise ... a virtual address of a compatible color is
	// allocated from a free list and managed through a dictionary as in
	// the i386 implementation."
	return s.colors[want%s.numColors].alloc(ctx, page, flags)
}

// Free releases the mapping; direct-map buffers need no action.
func (s *Sparc64) Free(ctx *smp.Context, b *Buf) {
	if b.home == nil {
		s.directFrees.Add(1)
		return
	}
	b.home.free(ctx, b)
}

// AllocBatch implements the vectored alloc for the hybrid: direct-map
// pages resolve inline (casts, as on amd64), and the cache-bound pages
// are split into one sub-batch per required color, each handed to that
// color's engine — so per-color striping multiplies with the sharded
// engine's per-shard batching when the sharded cores are configured.
func (s *Sparc64) AllocBatch(ctx *smp.Context, pages []*vm.Page, flags Flags) ([]*Buf, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	bufs := make([]*Buf, len(pages))
	byColor := make([][]int, s.numColors)
	direct := 0
	for i, pg := range pages {
		want := pg.UserColor
		if want < 0 || want == s.pageColor(pg) {
			bufs[i] = &Buf{kva: s.pm.DirectVA(pg), page: pg}
			direct++
			continue
		}
		c := want % s.numColors
		byColor[c] = append(byColor[c], i)
	}
	for color, idxs := range byColor {
		if len(idxs) == 0 {
			continue
		}
		sub := make([]*vm.Page, len(idxs))
		for j, idx := range idxs {
			sub[j] = pages[idx]
		}
		got, err := s.colors[color].allocBatch(ctx, sub, flags)
		if err != nil {
			// Unwind the colors already resolved, charged as the frees
			// they are.  A failed batch counts only in WouldBlock (and
			// the cores' Hits/Misses), so the undone pages are taken back
			// out of the cores' Allocs and Frees.
			var undo []*Buf
			for _, b := range bufs {
				if b != nil && b.home != nil {
					undo = append(undo, b)
				}
			}
			s.freeByCore(ctx, undo)
			s.undone.Add(uint64(len(undo)))
			return nil, err
		}
		for j, idx := range idxs {
			bufs[idx] = got[j]
		}
	}
	s.directAllocs.Add(uint64(direct))
	s.batchAllocs.Add(1)
	s.batchPages.Add(uint64(len(pages)))
	return bufs, nil
}

// FreeBatch releases a vectored batch.
func (s *Sparc64) FreeBatch(ctx *smp.Context, bufs []*Buf) {
	if len(bufs) == 0 {
		return
	}
	s.batchFrees.Add(1)
	s.directFrees.Add(uint64(s.freeByCore(ctx, bufs)))
}

// freeByCore releases bufs grouped by owning color engine, so each engine
// sees its share as one batch, and returns how many were direct-map casts
// (which need no release).
func (s *Sparc64) freeByCore(ctx *smp.Context, bufs []*Buf) (direct int) {
	type group struct {
		home mapCore
		bufs []*Buf
	}
	var groups []group
	pos := make(map[mapCore]int)
	for _, b := range bufs {
		if b.home == nil {
			direct++
			continue
		}
		gi, ok := pos[b.home]
		if !ok {
			gi = len(groups)
			pos[b.home] = gi
			groups = append(groups, group{home: b.home})
		}
		groups[gi].bufs = append(groups[gi].bufs, b)
	}
	for _, g := range groups {
		g.home.freeBatch(ctx, g.bufs)
	}
	return direct
}

// AllocRun implements the contiguous-run alloc for the hybrid.  A run is
// color-compatible when every page may use the direct map (no user
// mapping, or a user color matching the direct map's) AND the frames are
// physically contiguous: the direct map then provides the window for
// free, exactly as on amd64.  Any other run must split per required
// color, and per-color addresses are scattered by construction (the
// reserved region stripes colors across consecutive virtual pages), so
// the split degrades to a scattered run over the per-color batch
// machinery — the honest cost of a virtually-indexed cache.
func (s *Sparc64) AllocRun(ctx *smp.Context, pages []*vm.Page, flags Flags) (*Run, error) {
	if len(pages) == 0 {
		return nil, nil
	}
	direct := true
	for i, pg := range pages {
		if want := pg.UserColor; want >= 0 && want != s.pageColor(pg) {
			direct = false
			break
		}
		if i > 0 && pg.Frame() != pages[0].Frame()+uint64(i) {
			direct = false
			break
		}
	}
	if direct {
		s.directAllocs.Add(uint64(len(pages)))
		s.runAllocs.Add(1)
		s.runPages.Add(uint64(len(pages)))
		return &Run{
			pages:  append([]*vm.Page(nil), pages...),
			base:   s.pm.DirectVA(pages[0]),
			contig: true,
		}, nil
	}
	bufs, err := s.AllocBatch(ctx, pages, flags)
	if err != nil {
		return nil, err
	}
	s.runAllocs.Add(1)
	s.runPages.Add(uint64(len(pages)))
	return &Run{pages: append([]*vm.Page(nil), pages...), bufs: bufs}, nil
}

// FreeRun releases a hybrid run: nothing for a direct window, one
// grouped FreeBatch for a color split.
func (s *Sparc64) FreeRun(ctx *smp.Context, r *Run) {
	s.runFrees.Add(1)
	if r.bufs != nil {
		s.FreeBatch(ctx, r.bufs)
	} else {
		s.directFrees.Add(uint64(len(r.pages)))
	}
	r.pages, r.bufs = nil, nil
}

// nativeBatch reports whether the color engines amortize vectored
// requests; the direct-map share always does.
func (s *Sparc64) nativeBatch() bool {
	_, ok := s.colors[0].(*shardedCache)
	return ok
}

// nativeRun mirrors nativeBatch: with sharded cores the hybrid's
// color-compatible runs ride the direct map and its splits batch
// natively; with the paper's global cores runs must stay off the figure
// engines entirely.
func (s *Sparc64) nativeRun() bool {
	_, ok := s.colors[0].(*shardedCache)
	return ok
}

// Name implements Mapper.
func (s *Sparc64) Name() string { return "sf_buf/sparc64" }

// Stats implements Mapper, aggregating across colors; direct-map
// allocations count as hits.
func (s *Sparc64) Stats() Stats {
	var t Stats
	for _, c := range s.colors {
		cs := c.snapshotStats()
		t.Allocs += cs.Allocs
		t.Frees += cs.Frees
		t.Hits += cs.Hits
		t.Misses += cs.Misses
		t.Sleeps += cs.Sleeps
		t.Interrupted += cs.Interrupted
		t.WouldBlock += cs.WouldBlock
		t.FreelistAllocs += cs.FreelistAllocs
		t.Reclaims += cs.Reclaims
		t.Reclaimed += cs.Reclaimed
	}
	t.BatchAllocs = s.batchAllocs.Load()
	t.BatchFrees = s.batchFrees.Load()
	t.BatchPages = s.batchPages.Load()
	t.RunAllocs = s.runAllocs.Load()
	t.RunFrees = s.runFrees.Load()
	t.RunPages = s.runPages.Load()
	d, u := s.directAllocs.Load(), s.undone.Load()
	t.Allocs += d - u
	t.Hits += d
	t.Frees += s.directFrees.Load() - u
	return t
}

// ResetStats implements Mapper.
func (s *Sparc64) ResetStats() {
	for _, c := range s.colors {
		c.resetStats()
	}
	s.directAllocs.Store(0)
	s.directFrees.Store(0)
	s.batchAllocs.Store(0)
	s.batchFrees.Store(0)
	s.batchPages.Store(0)
	s.runAllocs.Store(0)
	s.runFrees.Store(0)
	s.runPages.Store(0)
	s.undone.Store(0)
}

// NumColors returns the configured color count.
func (s *Sparc64) NumColors() int { return s.numColors }

// DirectAllocs returns how many allocations took the direct-map fast path.
func (s *Sparc64) DirectAllocs() uint64 { return s.directAllocs.Load() }
