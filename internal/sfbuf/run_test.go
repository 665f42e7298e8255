package sfbuf

// Unit and economy tests for the contiguous-run API: AllocRun/FreeRun on
// every engine, the run-window pool (recycling, laundering, guard), the
// ranged-translate economy the PR's acceptance criterion demands, the
// loop-identical fallback on the paper's cache, simulated superpage
// promotion, and the batch-fair exhaustion wakeups.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// kvaArenaFor builds a fresh arena over the platform's dynamic region.
func kvaArenaFor(p arch.Platform) *kva.Arena {
	if p.Arch == arch.I386 {
		return kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	}
	return kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
}

func TestShardedAllocRunBasic(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 8)

	run, err := r.sf.AllocRun(ctx, pages, Private)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Contiguous() {
		t.Fatal("sharded engine must return a contiguous run")
	}
	if run.Len() != 8 {
		t.Fatalf("run length %d, want 8", run.Len())
	}
	for i := 0; i < run.Len(); i++ {
		if run.KVA(i) != run.Base()+uint64(i)*vm.PageSize {
			t.Fatalf("page %d KVA not consecutive", i)
		}
		got, err := r.pm.Translate(ctx, run.KVA(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data()[0] != byte(i) {
			t.Fatalf("page %d reads %#x, want %#x", i, got.Data()[0], byte(i))
		}
	}
	s := r.sf.Stats()
	if s.RunAllocs != 1 || s.RunPages != 8 || s.Allocs != 8 {
		t.Fatalf("stats after run = %+v", s)
	}
	// Runs consume the cache's buffer inventory as capacity tokens.
	if got := r.sf.InactiveLen(); got != 32-8 {
		t.Fatalf("inactive = %d, want 24 while the run is live", got)
	}
	r.sf.FreeRun(ctx, run)
	s = r.sf.Stats()
	if s.Allocs != s.Frees || s.RunFrees != 1 {
		t.Fatalf("drain stats = %+v", s)
	}
	if got := r.sf.InactiveLen(); got != 32 {
		t.Fatalf("inactive = %d, want 32 after FreeRun", got)
	}
}

func TestShardedAllocRunEmptyAndOversized(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	ctx := r.m.Ctx(0)
	if run, err := r.sf.AllocRun(ctx, nil, 0); err != nil || run != nil {
		t.Fatalf("empty run = %v, %v", run, err)
	}
	pages := allocPages(t, r.m, 9)
	if _, err := r.sf.AllocRun(ctx, pages, 0); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized run error = %v, want ErrBatchTooLarge", err)
	}
	if s := r.sf.Stats(); s.Allocs != 0 {
		t.Fatalf("failed run counted allocs: %+v", s)
	}
}

// TestRunWindowRecyclingAndLaunder drives run churn in two phases.  The
// first alternates two extents: both must be served by the page-set
// window cache (revives — parked windows resurrected with their
// translations intact) after their first installs.  The second churns a
// sliding sequence of DISTINCT extents, which can never revive, so
// windows must recycle through the laundering path — and the honest TLB
// proves a recycled window never serves a stale translation: every round
// maps a different page set and every read must see that round's bytes.
func TestRunWindowRecyclingAndLaunder(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 64, ShardedConfig{})
	ctx := r.m.Ctx(0)
	setA := allocPages(t, r.m, 8)
	setB := allocPages(t, r.m, 8)
	for i := range setA {
		setA[i].Data()[0] = 0xA0 + byte(i)
		setB[i].Data()[0] = 0xB0 + byte(i)
	}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		set, tag := setA, byte(0xA0)
		if i%2 == 1 {
			set, tag = setB, byte(0xB0)
		}
		run, err := r.sf.AllocRun(ctx, set, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < run.Len(); j++ {
			got, err := r.pm.Translate(ctx, run.KVA(j), false)
			if err != nil {
				t.Fatalf("round %d page %d: %v", i, j, err)
			}
			if got.Data()[0] != tag+byte(j) {
				t.Fatalf("round %d page %d reads %#x, want %#x — stale window translation",
					i, j, got.Data()[0], tag+byte(j))
			}
		}
		r.sf.FreeRun(ctx, run)
	}
	ws := r.sf.RunWindowStats()
	if ws.Reserved != 2 {
		t.Errorf("reserved %d fresh windows for 2 alternating extents, want 2", ws.Reserved)
	}
	if ws.Revives != rounds-2 {
		t.Errorf("revives = %d, want %d: every repeat of a parked extent must revive", ws.Revives, rounds-2)
	}

	// Phase 2: a sliding sequence of distinct extents defeats the
	// page-set cache, so windows must launder and recycle.
	pool := allocPages(t, r.m, 48)
	for i, pg := range pool {
		pg.Data()[0] = 0x40 + byte(i)
	}
	for i := 0; i+8 <= len(pool); i++ {
		run, err := r.sf.AllocRun(ctx, pool[i:i+8], 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < run.Len(); j++ {
			got, err := r.pm.Translate(ctx, run.KVA(j), false)
			if err != nil {
				t.Fatalf("slide %d page %d: %v", i, j, err)
			}
			if got.Data()[0] != 0x40+byte(i+j) {
				t.Fatalf("slide %d page %d reads %#x, want %#x — stale window translation",
					i, j, got.Data()[0], 0x40+byte(i+j))
			}
		}
		r.sf.FreeRun(ctx, run)
	}
	ws = r.sf.RunWindowStats()
	if ws.Reuses == 0 {
		t.Error("no window was ever recycled from clean stock")
	}
	if ws.Launders == 0 || ws.Laundered == 0 {
		t.Errorf("laundering never ran: %+v", ws)
	}
	if ws.Reserved > runLaunderBatch+2 {
		t.Errorf("reserved %d fresh windows; recycling is broken", ws.Reserved)
	}
	if got, want := float64(ws.Laundered)/float64(ws.Launders), float64(runLaunderBatch); got < want {
		t.Errorf("launder coalescing = %.1f windows/flush, want >= %.1f", got, want)
	}
}

// TestRunReviveSameExtent pins the page-set window cache's core claim: a
// repeat AllocRun over a just-freed extent revives the parked window —
// same VA window, zero PTE writes, zero page-table walks (the TLB still
// holds the translations), zero invalidations — and its pages count as
// cache Hits, exactly like a hash hit.
func TestRunReviveSameExtent(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 8)

	run, err := r.sf.AllocRun(ctx, pages, Private)
	if err != nil {
		t.Fatal(err)
	}
	base := run.Base()
	if _, err := r.pm.TranslateRun(ctx, run.Base(), run.Len(), false, nil); err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, run)

	before := r.m.SnapshotCounters()
	again, err := r.sf.AllocRun(ctx, pages, Private)
	if err != nil {
		t.Fatal(err)
	}
	if again.Base() != base {
		t.Fatalf("revived run base %#x, want the parked window %#x", again.Base(), base)
	}
	got, err := r.pm.TranslateRun(ctx, again.Base(), again.Len(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range got {
		if pg != pages[i] {
			t.Fatalf("revived window page %d resolves to the wrong frame", i)
		}
	}
	d := r.m.SnapshotCounters().Sub(before)
	if d.PTWalks != 0 {
		t.Errorf("walks across revive+translate = %d, want 0: the TLB entries were never invalidated", d.PTWalks)
	}
	if d.LocalInv != 0 || d.RemoteInvIssued != 0 {
		t.Errorf("invalidations across revive = %d local, %d remote rounds, want 0/0", d.LocalInv, d.RemoteInvIssued)
	}
	st := r.sf.Stats()
	if st.RunRevives != 1 || st.RunReviveMisses != 1 {
		t.Errorf("RunRevives = %d, RunReviveMisses = %d, want 1/1", st.RunRevives, st.RunReviveMisses)
	}
	if st.Hits != 8 || st.Misses != 8 {
		t.Errorf("Hits = %d, Misses = %d, want 8/8: revived pages count as hits", st.Hits, st.Misses)
	}
	r.sf.FreeRun(ctx, again)
	if st := r.sf.Stats(); st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
	}
}

// TestRunReviveRequiresExactExtent pins the cache key: a different page
// set, a permuted order of the same pages, or a different length must
// all miss — their installed translations would be wrong — while the
// exact sequence still revives afterwards.
func TestRunReviveRequiresExactExtent(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)
	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, run)

	// Permuted order: same frames, different sequence — must not revive.
	perm := []*vm.Page{pages[1], pages[0], pages[3], pages[2]}
	pr, err := r.sf.AllocRun(ctx, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range perm {
		got, err := r.pm.Translate(ctx, pr.KVA(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if got != pg {
			t.Fatalf("permuted run page %d resolves to the wrong frame — a stale revive", i)
		}
	}
	r.sf.FreeRun(ctx, pr)

	// Shorter prefix: same leading frames, different length — must not
	// revive either parked window.
	short, err := r.sf.AllocRun(ctx, pages[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, short)

	// The exact original sequence still revives its parked window.
	st0 := r.sf.Stats()
	again, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, again)
	st := r.sf.Stats()
	if st.RunRevives != st0.RunRevives+1 {
		t.Errorf("exact repeat did not revive: revives %d -> %d", st0.RunRevives, st.RunRevives)
	}
	if got := st.RunReviveMisses; got != 3 {
		t.Errorf("revive misses = %d, want 3 (cold, permuted, shortened)", got)
	}
}

// TestRunHandleOwnership: a window-backed run's page slice lives in its
// window, so it must never alias the caller's slice or another live run's,
// a freed run must read as empty, and a second FreeRun of a freed run must
// still panic after its window has been revived for another run.
func TestRunHandleOwnership(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 8)
	other := allocPages(t, r.m, 8)
	aliases := func(a, b []*vm.Page) bool {
		for i := range a {
			for j := range b {
				if &a[i] == &b[j] {
					return true
				}
			}
		}
		return false
	}

	first, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.sf.AllocRun(ctx, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aliases(first.Pages(), pages) || aliases(first.Pages(), second.Pages()) || aliases(second.Pages(), other) {
		t.Fatal("a live run's pages alias the caller's slice or another run's")
	}
	base := first.Base()
	r.sf.FreeRun(ctx, first)
	if first.Len() != 0 || len(first.Pages()) != 0 {
		t.Fatalf("freed run still reports %d pages", len(first.Pages()))
	}

	revived, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if revived.Base() != base || r.sf.Stats().RunRevives != 1 {
		t.Fatalf("the repeat did not revive the freed run's window (base %#x, want %#x)", revived.Base(), base)
	}
	if aliases(revived.Pages(), pages) || aliases(revived.Pages(), second.Pages()) {
		t.Fatal("the revived run's pages alias the caller's slice or another run's")
	}
	for i, pg := range revived.Pages() {
		if pg != pages[i] {
			t.Fatalf("revived run page %d is not the requested page", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second FreeRun of a freed run did not panic after its window was revived")
			}
		}()
		r.sf.FreeRun(ctx, first)
	}()
	r.sf.FreeRun(ctx, revived)
	r.sf.FreeRun(ctx, second)
	if st := r.sf.Stats(); st.Allocs != st.Frees || st.RunFrees != 3 {
		t.Fatalf("after the drain: %+v", st)
	}
}

// TestReviveTakesFirstKeyed pins which of several parked windows for the
// same extent a revive takes: the one whose revive key was set first, by
// its park or by the migration rekey that made it match, which is not
// always the one parked first.
func TestReviveTakesFirstKeyed(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)
	spare := allocPages(t, r.m, 1)[0]
	alloc := func(ext []*vm.Page) *Run {
		t.Helper()
		run, err := r.sf.AllocRun(ctx, ext, 0)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	// Two live runs over one extent park two windows for it.
	a, b := alloc(pages), alloc(pages)
	aBase := a.Base()
	r.sf.FreeRun(ctx, a)
	r.sf.FreeRun(ctx, b)
	if got := alloc(pages); got.Base() != aBase {
		t.Fatalf("revived %#x, want the window parked first (%#x)", got.Base(), aBase)
	} else {
		r.sf.FreeRun(ctx, got)
	}
	r.sf.LaunderRunWindows(ctx)

	// Park the extent, then one that differs in its first frame.  Moving
	// page 0 to that frame rekeys the first window to match the second,
	// which was keyed for those frames earlier.
	alt := append([]*vm.Page{spare}, pages[1:]...)
	a, b = alloc(pages), alloc(alt)
	bBase := b.Base()
	r.sf.FreeRun(ctx, a)
	r.sf.FreeRun(ctx, b)
	old := pages[0].Frame()
	r.m.Phys.SwapFrames(pages[0], spare)
	c := r.sf.c.(*shardedCache)
	c.runs.mu.Lock()
	remapped := c.runs.remapParkedLocked(ctx, pages[0], old)
	c.runs.mu.Unlock()
	if remapped != 1 {
		t.Fatalf("remapped %d slots, want 1", remapped)
	}
	if got := alloc(pages); got.Base() != bBase {
		t.Fatalf("revived %#x, want the window keyed first (%#x)", got.Base(), bBase)
	} else {
		r.sf.FreeRun(ctx, got)
	}
}

// TestRunWindowCapacityGauges pins the fragmentation-counter fix: the
// pool's capacity gauges are recomputed from live state at snapshot
// time, a parked (revivable) window counts as dirty — never as free
// capacity — and moves to the clean gauge only after laundering, without
// its address space ever returning to the arena's free ranges.
func TestRunWindowCapacityGauges(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	idle := r.sf.RunWindowStats().LargestFreeRun
	if idle <= 0 {
		t.Fatalf("idle largest free run = %d, want > 0", idle)
	}

	pages := allocPages(t, r.m, 8)
	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := r.sf.RunWindowStats()
	if ws.LargestFreeRun >= idle {
		t.Errorf("largest free run %d did not shrink below %d after reserving a window", ws.LargestFreeRun, idle)
	}
	reserved := ws.LargestFreeRun
	if ws.CleanPages != 0 || ws.DirtyPages != 0 {
		t.Errorf("gauges with a live run = clean %d / dirty %d, want 0/0", ws.CleanPages, ws.DirtyPages)
	}

	r.sf.FreeRun(ctx, run)
	ws = r.sf.RunWindowStats()
	if ws.DirtyPages != 8 || ws.CleanPages != 0 {
		t.Errorf("gauges after free = clean %d / dirty %d, want 0/8: a parked window is revivable, not free", ws.CleanPages, ws.DirtyPages)
	}
	if ws.LargestFreeRun != reserved {
		t.Errorf("largest free run %d changed at free, want %d: the parked window must not be double-counted as arena capacity", ws.LargestFreeRun, reserved)
	}

	r.sf.LaunderRunWindows(ctx)
	ws = r.sf.RunWindowStats()
	if ws.CleanPages != 8 || ws.DirtyPages != 0 {
		t.Errorf("gauges after laundering = clean %d / dirty %d, want 8/0", ws.CleanPages, ws.DirtyPages)
	}
	if ws.LargestFreeRun != reserved {
		t.Errorf("largest free run %d changed at laundering, want %d: clean stock stays cached, not returned to the arena", ws.LargestFreeRun, reserved)
	}
}

// TestRunGuardPageFaults proves the window guard: translating one page
// past the end of a run's window faults instead of landing in a
// neighboring mapping.
func TestRunGuardPageFaults(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 16, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)
	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.pm.Translate(ctx, run.Base()+4*vm.PageSize, false); !errors.Is(err, pmap.ErrFault) {
		t.Fatalf("access past the window = %v, want ErrFault", err)
	}
	if _, err := r.pm.TranslateRun(ctx, run.Base(), 5, false, nil); !errors.Is(err, pmap.ErrFault) {
		t.Fatalf("ranged access past the window = %v, want ErrFault", err)
	}
	r.sf.FreeRun(ctx, run)
}

// TestGlobalCacheRunIsLoopIdentical proves the figure-reproduction
// property for runs: on the paper's global-lock cache, a run request
// charges exactly the cycles, locks, walks and invalidations of the
// equivalent single-page sequence and leaves identical cache state, so
// every deterministic experiment is indifferent to the new API.
func TestGlobalCacheRunIsLoopIdentical(t *testing.T) {
	run := func(runs bool) (cyc int64, snap smp.Snapshot, st Stats) {
		r := newI386Rig(t, arch.XeonMPHTT(), 16)
		ctx := r.m.Ctx(0)
		pages := allocPages(t, r.m, 8)
		for round := 0; round < 6; round++ {
			if runs {
				rn, err := r.sf.AllocRun(ctx, pages, 0)
				if err != nil {
					t.Fatal(err)
				}
				if rn.Contiguous() {
					t.Fatal("global cache must not claim contiguity")
				}
				for j := 0; j < rn.Len(); j++ {
					if _, err := r.pm.Translate(ctx, rn.KVA(j), false); err != nil {
						t.Fatal(err)
					}
				}
				r.sf.FreeRun(ctx, rn)
			} else {
				bufs := make([]*Buf, 0, len(pages))
				for _, pg := range pages {
					b, err := r.sf.Alloc(ctx, pg, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
					bufs = append(bufs, b)
				}
				for _, b := range bufs {
					r.sf.Free(ctx, b)
				}
			}
		}
		return int64(r.m.TotalCycles()), r.m.SnapshotCounters(), r.sf.Stats()
	}
	rc, rs, rst := run(true)
	lc, ls, lst := run(false)
	if rc != lc {
		t.Errorf("cycles: run %d != loop %d", rc, lc)
	}
	if rs != ls {
		t.Errorf("counters: run %+v != loop %+v", rs, ls)
	}
	rst.RunAllocs, rst.RunFrees, rst.RunPages = 0, 0, 0
	if rst != lst {
		t.Errorf("mapper stats: run %+v != loop %+v", rst, lst)
	}
}

// TestRunTranslateEconomy enforces the PR's acceptance criterion: on
// contended multi-page churn with run=16, the contiguous-run path pays
// at least 4x fewer page-table walks per page than the scattered
// AllocBatch + per-page translation path (the CopyOutVec cost shape), at
// equal or better shootdown rounds per page.
func TestRunTranslateEconomy(t *testing.T) {
	const (
		entries = 128
		runLen  = 16
		rounds  = 250
	)
	drive := func(runs bool) (walksPerPage, sdRoundsPerPage float64) {
		r := newShardedRig(t, arch.XeonMPHTT(), entries, ShardedConfig{})
		pages := allocPages(t, r.m, 4*entries)
		ncpu := r.m.NumCPUs()
		scratch := make([]*vm.Page, runLen)
		var got []*vm.Page
		for i := 0; i < rounds; i++ {
			ctx := r.m.Ctx(i % ncpu)
			for j := 0; j < runLen; j++ {
				scratch[j] = pages[(i*runLen*3+j*7)%len(pages)]
			}
			if runs {
				rn, err := r.sf.AllocRun(ctx, scratch, 0)
				if err != nil {
					t.Fatal(err)
				}
				var terr error
				got, terr = r.pm.TranslateRun(ctx, rn.Base(), rn.Len(), false, got[:0])
				if terr != nil {
					t.Fatal(terr)
				}
				r.sf.FreeRun(ctx, rn)
			} else {
				bufs, err := r.sf.AllocBatch(ctx, scratch, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bufs {
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
				}
				r.sf.FreeBatch(ctx, bufs)
			}
		}
		snap := r.m.SnapshotCounters()
		pagesMoved := float64(rounds * runLen)
		return float64(snap.PTWalks) / pagesMoved, float64(snap.RemoteInvIssued) / pagesMoved
	}
	rWalks, rRounds := drive(true)
	bWalks, bRounds := drive(false)
	t.Logf("walks/page: run %.4f vs batch %.4f; shootdown rounds/page: run %.4f vs batch %.4f",
		rWalks, bWalks, rRounds, bRounds)
	if rWalks*4 > bWalks {
		t.Errorf("run path walks/page = %.4f, want <= 1/4 of batch path %.4f", rWalks, bWalks)
	}
	if rRounds > bRounds {
		t.Errorf("run path shootdown rounds/page = %.4f, want <= batch path %.4f", rRounds, bRounds)
	}
}

// TestSuperpagePromotion drives a run covering an aligned 2 MB-equivalent
// window of physically contiguous pages: the window must promote, a
// single walk must fill ONE large TLB entry covering all of it, and the
// teardown must demote it — with a recycled window never serving stale
// superpage translations.
func TestSuperpagePromotion(t *testing.T) {
	span := pmap.SuperpagePages
	r := newShardedRig(t, arch.XeonMPHTT(), span+64, ShardedConfig{})
	ctx := r.m.Ctx(0)
	// Promotion demands a SuperpagePages-ALIGNED first frame; a fresh
	// machine hands out frames 1, 2, 3, ..., so carve the aligned window
	// out of a double-span allocation.
	all := allocPages(t, r.m, 2*span)
	start := -1
	for i, pg := range all {
		if pg.Frame()%uint64(span) == 0 {
			start = i
			break
		}
	}
	if start < 0 || start+span > len(all) {
		t.Skip("no aligned window in the allocation")
	}
	pages := all[start : start+span]
	for i := 1; i < span; i++ {
		if pages[i].Frame() != pages[0].Frame()+uint64(i) {
			t.Skip("physical allocator did not hand out contiguous frames")
		}
	}

	run, err := r.sf.AllocRun(ctx, pages, Private)
	if err != nil {
		t.Fatal(err)
	}
	if !r.pm.Promoted(run.Base()) {
		t.Fatal("aligned contiguous window did not promote")
	}
	if ss := r.pm.SuperStats(); ss.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", ss.Promotions)
	}

	// One ranged translate of the whole window: one walk, ONE large TLB
	// entry — not span base entries.
	before := r.m.SnapshotCounters()
	tlbBefore := r.m.CPU(0).TLBStats()
	if _, err := r.pm.TranslateRun(ctx, run.Base(), span, false, nil); err != nil {
		t.Fatal(err)
	}
	d := r.m.SnapshotCounters().Sub(before)
	ts := r.m.CPU(0).TLBStats()
	if d.PTWalks != 1 {
		t.Errorf("walks for the window = %d, want 1", d.PTWalks)
	}
	if li := ts.LargeInserts - tlbBefore.LargeInserts; li != 1 {
		t.Errorf("large inserts = %d, want 1", li)
	}
	if bi := ts.Inserts - tlbBefore.Inserts; bi != 0 {
		t.Errorf("base inserts = %d, want 0: the large entry must cover the window", bi)
	}
	// Every page of the window now hits through the one large entry.
	before = r.m.SnapshotCounters()
	for i := 0; i < span; i++ {
		got, err := r.pm.Translate(ctx, run.KVA(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if got != pages[i] {
			t.Fatalf("page %d resolves to wrong frame through the superpage", i)
		}
	}
	if d := r.m.SnapshotCounters().Sub(before); d.PTWalks != 0 {
		t.Errorf("walks on large-entry hits = %d, want 0", d.PTWalks)
	}

	r.sf.FreeRun(ctx, run)
	// Teardown is lazy: the freed window parks with its promoted mapping
	// intact (revivable), so demotion happens at the laundering round,
	// not at FreeRun.
	if ss := r.pm.SuperStats(); ss.Demotions != 0 {
		t.Fatalf("demotions = %d, want 0 while the window is parked", ss.Demotions)
	}
	r.sf.LaunderRunWindows(ctx)
	if ss := r.pm.SuperStats(); ss.Demotions != 1 {
		t.Fatalf("demotions = %d after laundering, want 1", ss.Demotions)
	}

	// Recycle the window (laundering included) with DIFFERENT, reversed
	// pages: reads through the recycled window must see the new frames,
	// proving the demotion invalidated the large entry everywhere.
	reversed := make([]*vm.Page, span)
	for i := range pages {
		reversed[i] = pages[span-1-i]
	}
	for round := 0; round < runLaunderBatch+1; round++ {
		again, err := r.sf.AllocRun(ctx, reversed, Private)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.pm.Translate(ctx, again.KVA(0), false)
		if err != nil {
			t.Fatal(err)
		}
		if got != reversed[0] {
			t.Fatal("recycled window served a stale superpage translation")
		}
		r.sf.FreeRun(ctx, again)
	}
}

// TestRunClaimWakeupFairness pins the batch-fair exhaustion wakeup: a
// run sleeping for 4 buffers under exhaustion registers a claim and is
// woken ONCE, after the 4th single free credits it — not per freed
// buffer.  Sleeps counts sleep entries, so a re-waking rescanner would
// show Sleeps > 1.
func TestRunClaimWakeupFairness(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 4, ShardedConfig{})
	ctx := r.m.Ctx(0)
	heldPages := allocPages(t, r.m, 4)
	var held []*Buf
	for _, pg := range heldPages {
		b, err := r.sf.Alloc(ctx, pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, b)
	}
	fresh := allocPages(t, r.m, 4)
	done := make(chan error, 1)
	go func() {
		sctx := r.m.Ctx(1 % r.m.NumCPUs())
		run, err := r.sf.AllocRun(sctx, fresh, 0) // blocks: cache exhausted
		if err == nil {
			r.sf.FreeRun(sctx, run)
		}
		done <- err
	}()
	for r.sf.Stats().Sleeps == 0 {
		time.Sleep(time.Millisecond)
	}
	// Free the held buffers one at a time: the claim absorbs the first
	// three credits without waking anyone.
	for _, b := range held {
		r.sf.Free(ctx, b)
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("claimer never woke after its shortfall was covered")
	}
	if s := r.sf.Stats(); s.Sleeps != 1 {
		t.Errorf("sleeps = %d, want 1: the claimer must wake once, not per free", s.Sleeps)
	}
	if s := r.sf.Stats(); s.Allocs != s.Frees {
		t.Errorf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
}

// TestClaimWakesOnHashCoverage pins the liveness hole the claim could
// otherwise open: a batch's registered shortfall is exact when it goes
// to sleep, but it becomes an overestimate if another CPU then maps one
// of the batch's pages — that page now resolves by hash hit, needing no
// freed buffer — so waiting for the FULL shortfall in freed-buffer
// credits would sleep forever.  The sequence: a 2-page batch [A, X]
// registers need=2; one buffer is freed (credit 1, correctly no wake);
// another CPU consumes that buffer to map X and HOLDS it.  No further
// free can ever cover the stale need=2, but the hash-coverage wake lets
// the batch rescan, hit X, re-register need=1, and finish on the last
// free.
func TestClaimWakesOnHashCoverage(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 2, ShardedConfig{})
	ctx := r.m.Ctx(0)
	held := allocPages(t, r.m, 2) // W1, W2 fill the cache
	bw1, err := r.sf.Alloc(ctx, held[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	bw2, err := r.sf.Alloc(ctx, held[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	ax := allocPages(t, r.m, 2) // A, X — neither mapped yet
	done := make(chan error, 1)
	go func() {
		sctx := r.m.Ctx(1 % r.m.NumCPUs())
		bufs, err := r.sf.AllocBatch(sctx, ax, 0)
		if err == nil {
			r.sf.FreeBatch(sctx, bufs)
		}
		done <- err
	}()
	for r.sf.Stats().Sleeps == 0 {
		time.Sleep(time.Millisecond)
	}
	// Credit 1 of 2: must NOT wake the claimer.
	r.sf.Free(ctx, bw1)
	time.Sleep(2 * time.Millisecond)
	// Consume the freed buffer to map the batch's page X, and hold it:
	// the claim's registered need is now stale by one.
	bx, err := r.sf.Alloc(ctx, ax[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	// The hash-coverage wake must get the batch moving again; the final
	// free covers its re-registered shortfall for A.
	time.Sleep(2 * time.Millisecond)
	r.sf.Free(ctx, bw2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("batch slept forever on a shortfall that hash coverage had already shrunk")
	}
	r.sf.Free(ctx, bx)
	if s := r.sf.Stats(); s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
}

// TestMixedSingleBatchRunExhaustionStress mixes single, batch, and run
// allocators over a cache far too small for all of them, under -race:
// the exhaustion machinery (claims, starvation token, per-free wakeups)
// must neither deadlock nor corrupt the ledger.
func TestMixedSingleBatchRunExhaustionStress(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	pages := allocPages(t, r.m, 24)
	finished := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := r.m.Ctx(w % r.m.NumCPUs())
				for i := 0; i < 60; i++ {
					switch w % 3 {
					case 0: // singles
						pg := pages[(w*31+i)%len(pages)]
						b, err := r.sf.Alloc(ctx, pg, 0)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
							t.Error(err)
							return
						}
						r.sf.Free(ctx, b)
					case 1: // batches
						start := (w*5 + i) % (len(pages) - 3)
						bufs, err := r.sf.AllocBatch(ctx, pages[start:start+3], 0)
						if err != nil {
							t.Error(err)
							return
						}
						r.sf.FreeBatch(ctx, bufs)
					default: // runs
						start := (w*7 + i) % (len(pages) - 3)
						run, err := r.sf.AllocRun(ctx, pages[start:start+3], 0)
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := r.pm.TranslateRun(ctx, run.Base(), run.Len(), false, nil); err != nil {
							t.Error(err)
							return
						}
						r.sf.FreeRun(ctx, run)
					}
				}
			}(w)
		}
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("mixed single/batch/run exhaustion stress deadlocked")
	}
	if s := r.sf.Stats(); s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
	if got := r.sf.InactiveLen(); got != 8 {
		t.Fatalf("inactive = %d, want 8 after drain", got)
	}
}

// TestShardedRunChurnConcurrent is the -race churn stress for the run
// path: one goroutine per CPU allocating, sweeping (ranged translation
// through the honest MMU), and freeing overlapping runs, with byte
// verification so a stale window translation fails loudly.
func TestShardedRunChurnConcurrent(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 64, ShardedConfig{ReclaimBatch: 8, PerCPUFree: 4})
	pages := allocPages(t, r.m, 128)
	for i, pg := range pages {
		pg.Data()[0] = byte(i)
	}
	ncpu := r.m.NumCPUs()
	const rounds = 200
	var wg sync.WaitGroup
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := r.m.Ctx(cpu)
			var got []*vm.Page
			for i := 0; i < rounds; i++ {
				n := 2 + (i+cpu)%7
				start := (i*(2*cpu+1)*5 + cpu*13) % (len(pages) - n)
				run, err := r.sf.AllocRun(ctx, pages[start:start+n], 0)
				if err != nil {
					t.Error(err)
					return
				}
				var terr error
				got, terr = r.pm.TranslateRun(ctx, run.Base(), run.Len(), false, got[:0])
				if terr != nil {
					t.Error(terr)
					return
				}
				for j, pg := range got {
					if pg.Data()[0] != byte(start+j) {
						t.Errorf("cpu %d round %d: page %d reads %#x, want %#x — stale run window",
							cpu, i, j, pg.Data()[0], byte(start+j))
						return
					}
				}
				r.sf.FreeRun(ctx, run)
			}
		}(cpu)
	}
	wg.Wait()
	if s := r.sf.Stats(); s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
}

// TestNativeRunPredicate pins which engines claim contiguity.
func TestNativeRunPredicate(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	if !NativeRun(r.sf) {
		t.Error("sharded i386 must provide native runs")
	}
	g := newI386Rig(t, arch.XeonMPHTT(), 32)
	if NativeRun(g.sf) {
		t.Error("global-lock i386 must not claim native runs")
	}
	m, _, amd := newAMD64Rig(t)
	_ = m
	if !NativeRun(amd) {
		t.Error("amd64 direct map must provide native runs")
	}
}

// TestAMD64RunContiguity: physically contiguous frames get a free
// contiguous window (the direct map's arithmetic); scattered frames
// degrade to per-page casts, and neither ever invalidates.
func TestAMD64RunContiguity(t *testing.T) {
	m, pm, sf := newAMD64Rig(t)
	ctx := m.Ctx(0)
	pages := allocPages(t, m, 6) // fresh machine: contiguous frames
	run, err := sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Contiguous() {
		t.Fatal("contiguous frames must yield a contiguous direct-map run")
	}
	if run.Base() != pm.DirectVA(pages[0]) {
		t.Fatal("run base is not the direct-map address")
	}
	sf.FreeRun(ctx, run)

	scattered := []*vm.Page{pages[4], pages[1], pages[3]}
	run2, err := sf.AllocRun(ctx, scattered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Contiguous() {
		t.Fatal("scattered frames cannot be contiguous on a pure-arithmetic map")
	}
	for i, pg := range scattered {
		if run2.KVA(i) != pm.DirectVA(pg) {
			t.Fatalf("page %d of the fallback run is not its direct-map view", i)
		}
	}
	sf.FreeRun(ctx, run2)
	if c := m.Counters(); c.LocalInv.Load() != 0 || c.RemoteInvIssued.Load() != 0 {
		t.Fatal("amd64 runs must never invalidate")
	}
	st := sf.Stats()
	if st.Allocs != st.Frees || st.RunAllocs != 2 || st.RunFrees != 2 || st.RunPages != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOriginalRunIsContiguousOn64Bit: the original kernel's 64-bit
// pmap_qenter range is a contiguous run; its i386 loop is not.
func TestOriginalRunBehavior(t *testing.T) {
	m := smp.NewMachine(arch.OpteronMP(), 128, true)
	pm := pmap.New(m)
	sf := NewOriginal(m, pm, kvaArenaFor(arch.OpteronMP()))
	ctx := m.Ctx(0)
	pages := allocPages(t, m, 4)
	run, err := sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Contiguous() {
		t.Fatal("64-bit original run must be contiguous (pmap_qenter range)")
	}
	for i := 1; i < run.Len(); i++ {
		if run.KVA(i) != run.KVA(0)+uint64(i)*vm.PageSize {
			t.Fatal("pmap_qenter range not consecutive")
		}
	}
	sf.FreeRun(ctx, run)

	m32 := smp.NewMachine(arch.XeonMP(), 128, true)
	pm32 := pmap.New(m32)
	sf32 := NewOriginal(m32, pm32, kvaArenaFor(arch.XeonMP()))
	run32, err := sf32.AllocRun(m32.Ctx(0), allocPages(t, m32, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if run32.Contiguous() {
		t.Fatal("i386 original loops per page; its run must be scattered")
	}
	sf32.FreeRun(m32.Ctx(0), run32)
}
