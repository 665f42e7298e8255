package sfbuf

// Tests for the background reclaim & laundering daemon and the parked-window
// age bound: the sub-batch park leak regression (a lone parked window below
// the count threshold must still launder), the age bound beating revival,
// the daemon's watermark refill paying the after-idle reclaim ahead of
// demand, the clean-window trim, and a -race stress of the daemon against
// concurrent churn.

import (
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

// TestParkedWindowAgeLaunderSyncPath is the leak regression: a single
// parked window — far below runLaunderBatch, so the count threshold never
// fires — must still be laundered by the next allocation once it ages out,
// with no daemon running at all.
func TestParkedWindowAgeLaunderSyncPath(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)

	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, run)
	if ws := r.sf.RunWindowStats(); ws.DirtyPages != 4 {
		t.Fatalf("DirtyPages = %d after park, want 4", ws.DirtyPages)
	}

	SetLaunderAge(r.sf, 100)
	// Advance the machine clock past the age bound.  No idle work is
	// registered, so this models a pure lull: the sync path alone must
	// enforce the bound.
	r.m.Idle(0, 1000)

	// Allocate a DIFFERENT extent: the aged window must be laundered and
	// recycled for it, not left parked.
	other := allocPages(t, r.m, 4)
	run2, err := r.sf.AllocRun(ctx, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := r.sf.RunWindowStats()
	if ws.AgedLaunders != 1 || ws.AgedWindows != 1 {
		t.Fatalf("aged counters = %d/%d, want 1/1", ws.AgedLaunders, ws.AgedWindows)
	}
	if ws.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after aged launder, want 0", ws.DirtyPages)
	}
	// The laundered window was recycled, not re-reserved.
	if ws.Reserved != 1 || ws.Reuses != 1 {
		t.Fatalf("reserved/reuses = %d/%d, want 1/1 (recycle the aged window)", ws.Reserved, ws.Reuses)
	}
	r.sf.FreeRun(ctx, run2)
}

// TestAgeBoundBeatsRevival pins the acceptance rule "no run window stays
// revivable-parked past LaunderAge regardless of how few dirty windows
// exist": even a repeat AllocRun over the EXACT parked extent — the one
// request revival exists for — must not revive a window past the bound.
func TestAgeBoundBeatsRevival(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)

	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, run)

	// The bound must dwarf the cycles the alloc/free paths themselves
	// charge (which also advance the machine clock), so only the explicit
	// idle below can age a window past it.
	SetLaunderAge(r.sf, 1<<17)
	r.m.Idle(0, 1<<18)

	run2, err := r.sf.AllocRun(ctx, pages, 0) // same extent
	if err != nil {
		t.Fatal(err)
	}
	ws := r.sf.RunWindowStats()
	if ws.Revives != 0 {
		t.Fatalf("revives = %d, want 0: the age bound must win over revival", ws.Revives)
	}
	if ws.AgedWindows != 1 {
		t.Fatalf("AgedWindows = %d, want 1", ws.AgedWindows)
	}
	r.sf.FreeRun(ctx, run2)

	// Control: under the bound, the same reuse DOES revive.
	r.m.Idle(0, 1000) // ages the new park by far less than launderAge
	run3, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.sf.RunWindowStats().Revives; got != 1 {
		t.Fatalf("revives = %d, want 1: young parked windows must still revive", got)
	}
	r.sf.FreeRun(ctx, run3)
}

// TestDaemonLaundersParkedWindowOnIdle is the other half of the leak fix:
// with NO further allocations at all, the daemon's idle pass alone must
// retire an aged parked window.
func TestDaemonLaundersParkedWindowOnIdle(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)

	run, err := r.sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.FreeRun(ctx, run)

	d := NewDaemon(r.sf, DaemonConfig{LaunderAge: 1 << 17})
	if d == nil {
		t.Fatal("NewDaemon returned nil for a sharded engine")
	}
	r.m.RegisterIdleWork(d.Run)

	// First tick: the window is still young, so the pass leaves it parked
	// — the bound is an age bound, not "launder on any idle".
	r.m.Idle(0, 1000)
	if ws := r.sf.RunWindowStats(); ws.DirtyPages != 4 {
		t.Fatalf("DirtyPages = %d after young tick, want 4", ws.DirtyPages)
	}
	// The pass runs at tick ENTRY, so the long tick itself still sees a
	// young window; it is the tick after the clock advance that launders.
	r.m.Idle(0, 1<<18)
	r.m.Idle(0, 1000)
	ws := r.sf.RunWindowStats()
	if ws.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after daemon tick, want 0", ws.DirtyPages)
	}
	if ws.AgedWindows != 1 {
		t.Fatalf("AgedWindows = %d, want 1", ws.AgedWindows)
	}
	ds := d.Stats()
	if ds.Passes < 3 || ds.AgedWindows != 1 {
		t.Fatalf("daemon stats = %+v, want 3 passes and 1 aged window", ds)
	}
}

// TestDaemonRefillsCleanStock: after a burst fills and frees the whole
// cache, an idle tick must restock the clean freelists so the next burst's
// misses pop clean buffers instead of paying a synchronous reclaim round.
func TestDaemonRefillsCleanStock(t *testing.T) {
	probeAfterIdle := func(idle bool) (reclaims uint64, ds DaemonStats) {
		r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
		ctx := r.m.Ctx(0)
		d := NewDaemon(r.sf, DaemonConfig{Watermark: 16})
		r.m.RegisterIdleWork(d.Run)

		working := allocPages(t, r.m, 32)
		bufs, err := r.sf.AllocBatch(ctx, working, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bufs {
			if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
				t.Fatal(err)
			}
		}
		r.sf.FreeBatch(ctx, bufs)

		if idle {
			r.m.Idle(0, 1<<20)
		}

		before := r.sf.Stats().Reclaims
		fresh := allocPages(t, r.m, 8)
		pb, err := r.sf.AllocBatch(ctx, fresh, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.sf.FreeBatch(ctx, pb)
		return r.sf.Stats().Reclaims - before, d.Stats()
	}

	onDemand, _ := probeAfterIdle(false)
	if onDemand == 0 {
		t.Fatal("control broken: the probe burst should force a synchronous reclaim round")
	}
	prefilled, ds := probeAfterIdle(true)
	if prefilled != 0 {
		t.Fatalf("probe after idle paid %d synchronous reclaim rounds, want 0 (daemon should have refilled)", prefilled)
	}
	if ds.Passes == 0 || ds.RefillRounds == 0 || ds.RefilledBufs == 0 {
		t.Fatalf("daemon stats = %+v, want nonzero passes/refill rounds/refilled bufs", ds)
	}
}

// TestDaemonTrimsSurplusCleanWindows: after a run spike, the daemon's pass
// must launder what aged out and give surplus clean windows' address space
// back to the arena, keeping only runLaunderBatch per size class.
func TestDaemonTrimsSurplusCleanWindows(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 64, ShardedConfig{})
	ctx := r.m.Ctx(0)

	// Twelve simultaneous 4-page runs: freeing them parks 12 windows (the
	// count-threshold launder only fires on the NEXT allocation, which
	// never comes — exactly the population the daemon exists to retire).
	pages := allocPages(t, r.m, 48)
	runs := make([]*Run, 12)
	for i := range runs {
		var err error
		runs[i], err = r.sf.AllocRun(ctx, pages[i*4:(i+1)*4], 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range runs {
		r.sf.FreeRun(ctx, run)
	}
	ws := r.sf.RunWindowStats()
	if ws.DirtyPages != 48 || ws.CleanPages != 0 {
		t.Fatalf("after spike: dirty/clean pages = %d/%d, want 48/0", ws.DirtyPages, ws.CleanPages)
	}
	freeBefore := ws.LargestFreeRun

	d := NewDaemon(r.sf, DaemonConfig{LaunderAge: 1 << 17})
	r.m.RegisterIdleWork(d.Run)
	r.m.Idle(0, 1<<20) // pass sees young windows; the tick ages them all
	r.m.Idle(0, 1<<20) // launder the aged dozen, then trim the surplus

	ws = r.sf.RunWindowStats()
	if ws.DirtyPages != 0 {
		t.Fatalf("DirtyPages = %d after lull, want 0", ws.DirtyPages)
	}
	// 12 windows laundered clean, trim keeps runLaunderBatch (8) of them.
	if ws.Trimmed != 4 {
		t.Fatalf("Trimmed = %d, want 4", ws.Trimmed)
	}
	if got := d.Stats().TrimmedWindows; got != 4 {
		t.Fatalf("daemon TrimmedWindows = %d, want 4", got)
	}
	if ws.CleanPages != 32 {
		t.Fatalf("CleanPages = %d after trim, want 32 (8 windows x 4 pages)", ws.CleanPages)
	}
	if ws.LargestFreeRun < freeBefore {
		t.Fatalf("LargestFreeRun shrank across trim: %d -> %d", freeBefore, ws.LargestFreeRun)
	}
}

// TestDaemonRaceStress runs the daemon's idle passes concurrently with
// alloc/free and run churn on every CPU — the -race tier's check that the
// background pass takes the same locks as the foreground paths.
func TestDaemonRaceStress(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 64, ShardedConfig{})
	d := NewDaemon(r.sf, DaemonConfig{Watermark: 8, LaunderAge: 2048})
	r.m.RegisterIdleWork(d.Run)

	pages := make([]*vm.Page, 32)
	for i := range pages {
		pages[i] = r.page(t)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := r.m.Ctx(w % r.m.NumCPUs())
			for i := 0; i < 300; i++ {
				if i%3 == 0 {
					lo := (w*4 + i) % (len(pages) - 4)
					run, err := r.sf.AllocRun(ctx, pages[lo:lo+4], 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.sf.FreeRun(ctx, run)
				} else {
					b, err := r.sf.Alloc(ctx, pages[(w*7+i)%len(pages)], 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.sf.Free(ctx, b)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.m.Idle(w%r.m.NumCPUs(), 4096)
			}
		}(w)
	}
	wg.Wait()

	s := r.sf.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("ledger: allocs %d != frees %d", s.Allocs, s.Frees)
	}
	// The daemon counts only what its own rounds harvested, never another
	// CPU's reclaim that happened to land during its pass.
	if ds := d.Stats(); ds.RefilledBufs > s.Reclaimed {
		t.Fatalf("daemon refilled %d buffers, but only %d were ever reclaimed", ds.RefilledBufs, s.Reclaimed)
	}
	// The machine must still be fully functional after the stress.
	ctx := r.m.Ctx(0)
	b, err := r.sf.Alloc(ctx, pages[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.Free(ctx, b)
}
