package kernel

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kcopy"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// TestSendExtentRecordReuse: a send extent's release state is recycled
// through its consumer, so a warmed window allocates nothing beyond the
// mapping layer's own batch; a record is never reused while one of its
// references is outstanding; and a Drop through a copy that outlived
// its window panics before it touches the window now using the record.
func TestSendExtentRecordReuse(t *testing.T) {
	k, err := Boot(Config{
		Platform:     arch.XeonMP(),
		Mapper:       SFBuf,
		Cache:        CacheSharded,
		Contig:       Off,
		PhysPages:    512,
		CacheEntries: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Plan.Runs || !k.Plan.BatchSend {
		t.Fatalf("plan %+v does not map send extents as batches", k.Plan)
	}
	c := k.Consumer("test-send-records")
	ctx := k.Ctx(0)
	all, err := k.M.Phys.AllocN(16)
	if err != nil {
		t.Fatal(err)
	}
	a, b := all[:8], all[8:]
	mapWired := func(pages []*vm.Page) Extent {
		t.Helper()
		for _, pg := range pages {
			pg.Wire()
		}
		e, err := c.MapSendExtent(ctx, pages)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Host cost: mapping a window and releasing it page by page costs no
	// more allocations than the bare batch underneath.  (Not under the
	// race detector, which randomly drops sync.Pool items, so the batch's
	// pooled scratch reallocates by chance.)
	window := func() {
		e := mapWired(a)
		for j := range a {
			e.Release(j)(ctx)
		}
	}
	bare := func() {
		bufs, err := k.Map.AllocBatch(ctx, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		k.Map.FreeBatch(ctx, bufs)
	}
	window()
	bare()
	if w, b := testing.AllocsPerRun(100, window), testing.AllocsPerRun(100, bare); w > b && !raceEnabled {
		t.Fatalf("a warmed send window allocated %.1f objects, the bare batch %.1f", w, b)
	}

	// Reuse: a record with a reference outstanding stays with its window.
	e1 := mapWired(a)
	e1.Drop(ctx, len(a)-1)
	e2 := mapWired(b)
	if e2.rec == e1.rec {
		t.Fatal("a record was reused while its window still held a reference")
	}
	e1.Drop(ctx, 1) // the last reference: e1's record is free
	if a[0].Wired() {
		t.Fatal("the last reference did not unwire the window's pages")
	}
	e3 := mapWired(a)
	if e3.rec != e1.rec || e3.gen == e1.gen {
		t.Fatalf("the released record was not recycled under a new generation (same record %v, gen %d -> %d)",
			e3.rec == e1.rec, e1.gen, e3.gen)
	}

	// A stale copy: the generation check fires before any reference moves.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Drop through a recycled window's stale Extent did not panic")
			}
		}()
		e1.Drop(ctx, 1)
	}()
	if got := e3.rec.refs.Load(); got != int32(len(a)) {
		t.Fatalf("the stale Drop moved the new window's references to %d, want %d", got, len(a))
	}
	e2.Drop(ctx, len(b))
	e3.Drop(ctx, len(a))
	for _, pg := range all {
		if pg.Wired() {
			t.Fatalf("%v still wired after every window was released", pg)
		}
	}
}

// TestSendExtentRecordsConcurrent: send windows are mapped on one
// goroutine and released on another — an ACK path on a different CPU —
// by two pairs sharing one consumer, so its record free list is taken and
// refilled from four goroutines at once.  Run with -race.
func TestSendExtentRecordsConcurrent(t *testing.T) {
	k, err := Boot(Config{Platform: arch.XeonMPHTT(), Mapper: SFBuf, Cache: CacheSharded, PhysPages: 512, CacheEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	if k.M.NumCPUs() < 4 {
		t.Fatalf("need 4 CPUs, platform has %d", k.M.NumCPUs())
	}
	c := k.Consumer("test-send-concurrent")
	const windows = 200
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pages, err := k.M.Phys.AllocN(8)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan Extent)
		wg.Add(2)
		go func(ctx *smp.Context) {
			defer wg.Done()
			defer close(ch)
			for i := 0; i < windows; i++ {
				for _, pg := range pages {
					pg.Wire()
				}
				e, err := c.MapSendExtent(ctx, pages)
				if err != nil {
					t.Error(err)
					return
				}
				ch <- e
			}
		}(k.Ctx(2 * p))
		go func(ctx *smp.Context) {
			defer wg.Done()
			for e := range ch {
				e.Drop(ctx, len(pages))
			}
		}(k.Ctx(2*p + 1))
		defer func() {
			for _, pg := range pages {
				if pg.Wired() {
					t.Errorf("%v still wired after every window was released", pg)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPerPageSendExtentUnwinds: where the engine maps sends page by page,
// a send extent maps page j only when it is taken, and both of its unwind
// paths leave every page unwired exactly once (a second unwire panics)
// and every mapping freed.  Taking part of a window and dropping the
// rest releases the taken pages through their own hooks and unwires the
// untaken ones; a NoWait take that fails is rolled back, leaving the
// pages wired for the caller's retry.
func TestPerPageSendExtentUnwinds(t *testing.T) {
	k, err := Boot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 512, CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Consumer("test-send-per-page")
	ctx := k.Ctx(0)
	pages, err := k.M.Phys.AllocN(6)
	if err != nil {
		t.Fatal(err)
	}
	wire := func(pages []*vm.Page) {
		for _, pg := range pages {
			pg.Wire()
		}
	}
	unwired := func(what string) {
		t.Helper()
		for _, pg := range pages {
			if pg.Wired() {
				t.Fatalf("%s: %v still wired", what, pg)
			}
		}
		if st := k.Map.Stats(); st.Allocs != st.Frees {
			t.Fatalf("%s: allocs %d, frees %d", what, st.Allocs, st.Frees)
		}
	}

	// Take half the window, drop the rest, then release the taken pages.
	wire(pages)
	e, err := c.MapSendExtent(ctx, pages)
	if err != nil {
		t.Fatal(err)
	}
	if e.Mapped() || k.Map.Stats().Allocs != 0 {
		t.Fatalf("a per-page window mapped before any take (mapped %v, %+v)", e.Mapped(), k.Map.Stats())
	}
	var hooks []func(*smp.Context)
	for j := 0; j < 3; j++ {
		if _, err := e.Take(ctx, j); err != nil {
			t.Fatal(err)
		}
		hooks = append(hooks, e.Release(j))
	}
	if got := k.Map.Stats().Allocs; got != 3 {
		t.Fatalf("three takes mapped %d pages", got)
	}
	e.Drop(ctx, len(pages)-3)
	for _, release := range hooks {
		release(ctx)
	}
	unwired("take and drop")

	// A NoWait take that finds the cache full rolls the window back.
	held, err := k.Map.Alloc(ctx, pages[5], 0)
	if err != nil {
		t.Fatal(err)
	}
	held2, err := k.Map.Alloc(ctx, pages[4], 0)
	if err != nil {
		t.Fatal(err)
	}
	win := pages[:4]
	wire(win)
	e, err = c.SendWindow().MapExtent(ctx, win, sfbuf.NoWait)
	if err != nil {
		t.Fatal(err)
	}
	taken := 0
	for ; taken < len(win); taken++ {
		if _, err = e.Take(ctx, taken); err != nil {
			break
		}
	}
	if !errors.Is(err, sfbuf.ErrWouldBlock) || taken != 2 {
		t.Fatalf("took %d of 4 pages into a 4-entry cache holding 2, then %v; want 2, then ErrWouldBlock", taken, err)
	}
	e.Rollback(ctx)
	for _, pg := range win {
		if !pg.Wired() {
			t.Fatalf("rollback unwired %v; the caller keeps the wiring", pg)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Drop through a rolled-back window did not panic")
			}
		}()
		e.Drop(ctx, 1)
	}()
	for _, pg := range win {
		pg.Unwire()
	}
	k.Map.Free(ctx, held)
	k.Map.Free(ctx, held2)
	unwired("rollback")

}

// TestPerPageExtentCopies: where the engine neither runs nor batches (the
// paper's global-lock cache), and where the extent is wider than the
// mapping cache, MapExtent returns a per-page extent.  Nothing is mapped
// until a copy touches a page; copies at unaligned offsets cross page
// boundaries with the right bytes, mapping and unmapping each page they
// touch; and Unmap has nothing left to release.
func TestPerPageExtentCopies(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"global", Config{Cache: CacheGlobal, CacheEntries: 64}},
		{"sharded-over", Config{Contig: On, CacheEntries: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Platform, cfg.Mapper, cfg.PhysPages, cfg.Backed = arch.XeonMP(), SFBuf, 64, true
			k := MustBoot(cfg)
			ctx := k.Ctx(0)
			pages, err := k.M.Phys.AllocN(6)
			if err != nil {
				t.Fatal(err)
			}
			e, err := k.Consumer("test-per-page").MapExtent(ctx, pages, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if e.Mapped() || k.Map.Stats().Allocs != 0 {
				t.Fatalf("a per-page extent mapped before any copy (mapped %v, %+v)", e.Mapped(), k.Map.Stats())
			}
			// Both copies touch pages 0-3.
			off := vm.PageSize - 77
			src := make([]byte, 2*vm.PageSize+123)
			for i := range src {
				src[i] = byte(i*7 + 3)
			}
			if err := e.CopyIn(ctx, off, src); err != nil {
				t.Fatal(err)
			}
			for i, b := range src {
				at := off + i
				if got := pages[at/vm.PageSize].Data()[at%vm.PageSize]; got != b {
					t.Fatalf("CopyIn: byte %d landed as %#x, want %#x", i, got, b)
				}
			}
			dst := make([]byte, len(src)-10)
			if err := e.CopyOut(ctx, dst, off+5); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, src[5:len(src)-5]) {
				t.Fatal("CopyOut read the wrong bytes")
			}
			e.Unmap(ctx)
			if st := k.Map.Stats(); st.Allocs != 8 || st.Frees != st.Allocs {
				t.Fatalf("two 4-page copies: %+v, want 8 allocs, all freed", st)
			}
		})
	}
}

// TestPerPageExtentFlags: a per-page extent maps each page with the
// per-page flags MapExtent was given, not the window flags.  On the
// global-lock cache, a buffer reused for another page owes remote
// invalidations only if its mapping was shared.
func TestPerPageExtentFlags(t *testing.T) {
	for _, tc := range []struct {
		window, page sfbuf.Flags
		remote       bool
	}{
		{0, sfbuf.Private, false},
		{sfbuf.Private, 0, true},
	} {
		k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 64, Backed: true, CacheEntries: 4})
		ctx := k.Ctx(0)
		pages, err := k.M.Phys.AllocN(16)
		if err != nil {
			t.Fatal(err)
		}
		e, err := k.Consumer("test-per-page").MapExtent(ctx, pages, tc.window, tc.page)
		if err != nil {
			t.Fatal(err)
		}
		// Sixteen pages through four buffers: every copy after the first
		// four reuses an accessed buffer.
		buf := make([]byte, len(pages)*vm.PageSize)
		if err := e.CopyOut(ctx, buf, 0); err != nil {
			t.Fatal(err)
		}
		e.Unmap(ctx)
		if rinv := k.M.SnapshotCounters().RemoteInvIssued; (rinv > 0) != tc.remote {
			t.Fatalf("per-page flags %v: %d remote invalidations", tc.page, rinv)
		}
	}
}

// TestOnePageExtentChargesAllocCopyFree: a one-page extent is per-page on
// every engine and never consults the policy, so MapExtent, one copy and
// Unmap charge exactly what Alloc, the copy through the page's KVA and
// Free charge on an identically booted kernel.
func TestOnePageExtentChargesAllocCopyFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"global", Config{Mapper: SFBuf, Cache: CacheGlobal}},
		{"original", Config{Mapper: OriginalKernel}},
		{"sharded-adaptive", Config{Mapper: SFBuf}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(extent bool) (uint64, sfbuf.Stats, PolicyStats) {
				cfg := tc.cfg
				cfg.Platform, cfg.PhysPages, cfg.Backed, cfg.CacheEntries = arch.XeonMP(), 64, true, 16
				k := MustBoot(cfg)
				ctx := k.Ctx(0)
				pg, err := k.M.Phys.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				c := k.Consumer("test-one-page")
				dst := make([]byte, 100)
				if extent {
					e, err := c.MapExtent(ctx, []*vm.Page{pg}, sfbuf.Private, sfbuf.Private)
					if err != nil {
						t.Fatal(err)
					}
					err = e.CopyOut(ctx, dst, 1000)
					e.Unmap(ctx)
					if err != nil {
						t.Fatal(err)
					}
				} else {
					b, err := k.Map.Alloc(ctx, pg, sfbuf.Private)
					if err != nil {
						t.Fatal(err)
					}
					err = kcopy.CopyOut(ctx, k.Pmap, dst, b.KVA()+1000)
					k.Map.Free(ctx, b)
					if err != nil {
						t.Fatal(err)
					}
				}
				return uint64(k.M.TotalCycles()), k.Map.Stats(), c.PolicyStats()
			}
			cyc, st, ps := run(true)
			wantCyc, wantSt, _ := run(false)
			if cyc != wantCyc || st != wantSt {
				t.Fatalf("one-page extent: %d cycles %+v; Alloc+copy+Free: %d cycles %+v", cyc, st, wantCyc, wantSt)
			}
			if ps.Observations != 0 || ps.RunDecisions != 0 || ps.BatchDecisions != 0 {
				t.Fatalf("a one-page extent consulted the policy: %+v", ps)
			}
		})
	}
}
