package sfbuf

// Unit and stress tests for defragmentation by migration.  The
// deterministic tests drive the Migrator over small buddy pools where
// every span's fate can be pinned exactly: starvation that defeats the
// buddy allocator recovers after evacuation, pinned pages veto their
// span, inactive cache entries and parked run windows are rewritten in
// place and keep serving hits and revives, and the physcheck oracles
// (free-list audit, reservation invariant, byte oracle) hold after every
// pass.  The -race tests interleave migration+churn with concurrent
// mapping traffic to exercise the shard-scoped migration exclusion under
// real parallelism.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

const migTestSpan = 64 // frames per contiguity target in these tests

type migrateRig struct {
	m     *smp.Machine
	pm    *pmap.Pmap
	arena *kva.Arena
	sf    *I386
	mig   *Migrator
}

// newMigrateRig builds a sharded i386 engine over a flat buddy pool with
// a reservation at the test span's order and a Migrator configured for
// that span.
func newMigrateRig(t *testing.T, frames, entries int, cfg ShardedConfig) *migrateRig {
	t.Helper()
	m := smp.NewMachineWithPhys(arch.XeonMPHTT(), vm.NewBuddyPhysMem(frames, true))
	order := 0
	for 1<<order < migTestSpan {
		order++
	}
	m.Phys.SetReservation(order, 2)
	pm := pmap.New(m)
	arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	sf, err := NewI386Sharded(m, pm, arena, entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mig := NewMigrator(sf, MigrateConfig{Span: migTestSpan, MaxResident: migTestSpan / 2})
	if mig == nil {
		t.Fatal("NewMigrator declined a sharded engine over a buddy pool")
	}
	return &migrateRig{m: m, pm: pm, arena: arena, sf: sf, mig: mig}
}

// TestMigratorEligibility pins which engines migrate: only the sharded
// cache over a buddy pool.  The global-lock figure engine, the original
// kernel, and any engine over the LIFO pool must be declined, so the
// paper reproductions can never be perturbed by a misconfigured Migrator.
func TestMigratorEligibility(t *testing.T) {
	plat := arch.XeonMPHTT()
	buddy := smp.NewMachineWithPhys(plat, vm.NewBuddyPhysMem(256, true))
	lifo := smp.NewMachine(plat, 256, true)
	mkArena := func() *kva.Arena { return kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386) }

	sharded, err := NewI386Sharded(buddy, pmap.New(buddy), mkArena(), 8, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if NewMigrator(sharded, MigrateConfig{}) == nil {
		t.Fatal("sharded engine over buddy pool must migrate")
	}
	if NewMigrator(sharded, MigrateConfig{Span: 48}) != nil {
		t.Fatal("non-power-of-two span must be rejected")
	}
	global, err := NewI386(buddy, pmap.New(buddy), mkArena(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if NewMigrator(global, MigrateConfig{}) != nil {
		t.Fatal("global-lock figure engine must never migrate")
	}
	orig := NewOriginal(buddy, pmap.New(buddy), mkArena())
	if NewMigrator(orig, MigrateConfig{}) != nil {
		t.Fatal("original kernel must never migrate")
	}
	shardedLIFO, err := NewI386Sharded(lifo, pmap.New(lifo), mkArena(), 8, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if NewMigrator(shardedLIFO, MigrateConfig{}) != nil {
		t.Fatal("LIFO pool has no block geometry: migration must be declined")
	}
	var nilMig *Migrator
	if st := nilMig.Stats(); st != (MigrationStats{}) {
		t.Fatal("nil Migrator must report zero stats")
	}
	if nilMig.MigrateBlocks(buddy.Ctx(0), 4) != 0 {
		t.Fatal("nil Migrator must migrate nothing")
	}
}

// TestMigrateRecoversContigFromSeventyPctChurn is the starvation
// acceptance case in miniature: steady single-page churn to ~70%
// occupancy with scattered survivors leaves ZERO intact spans — repeated
// AllocContig fails sustained, exactly the regime that defeats eager
// buddy coalescing — and a few migration passes rebuild intact spans with
// every survivor's bytes and registry identity preserved.
func TestMigrateRecoversContigFromSeventyPctChurn(t *testing.T) {
	const frames = 1024
	r := newMigrateRig(t, frames, 16, ShardedConfig{ReclaimBatch: 4, PerCPUFree: 2})
	ctx := r.m.Ctx(0)

	// Churn shape: allocate the entire pool, then free scattered fragments
	// out of five spans while the rest stay dense — ~70% occupancy overall,
	// dense spans too full to evacuate, sparse spans each keeping a
	// scatter of quiescent survivors, and ZERO intact spans anywhere.
	var all []*vm.Page
	for {
		pg, err := r.m.Phys.Alloc()
		if err != nil {
			break
		}
		all = append(all, pg)
	}
	var held, dense []*vm.Page
	var wantB []byte
	for _, pg := range all {
		f := pg.Frame()
		s, off := f/migTestSpan, f%migTestSpan
		if s >= 1 && s <= 5 {
			if off == 3 || off == 17 || off == 33 || off == 49 {
				pg.Data()[0] = byte(f)
				held = append(held, pg)
				wantB = append(wantB, byte(f))
				continue
			}
			r.m.Phys.Free(pg)
			continue
		}
		dense = append(dense, pg)
	}
	if occ := r.m.Phys.PhysStats(); frames-occ.FreeFrames < frames*2/3 {
		t.Fatalf("churn left %d resident frames, want ~70%% of %d", frames-occ.FreeFrames, frames)
	}
	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatal(err)
	}

	// Sustained starvation: the scatter defeats the allocator every time.
	for try := 0; try < 3; try++ {
		if _, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan); !errors.Is(err, vm.ErrNoContig) {
			t.Fatalf("try %d: AllocContig = %v, want ErrNoContig under 70%% scattered occupancy", try, err)
		}
	}

	oracle := physcheck.NewOracle(held)
	check := physcheck.NewChecker(r.m.Phys)
	freed := r.mig.MigrateBlocks(ctx, 5)
	if freed == 0 {
		t.Fatal("migration coalesced no spans out of a pool full of nearly-free candidates")
	}
	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatalf("after migration: %v", err)
	}
	if err := check.Step(r.m.Phys); err != nil {
		t.Fatalf("after migration: %v", err)
	}
	if err := oracle.Check(r.m.Phys); err != nil {
		t.Fatalf("after migration: %v", err)
	}
	st := r.mig.Stats()
	if st.PagesMoved == 0 || st.BlocksFreed != uint64(freed) {
		t.Fatalf("stats moved=%d freed=%d, want moves and freed=%d", st.PagesMoved, st.BlocksFreed, freed)
	}

	pages, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatalf("AllocContig after migration: %v", err)
	}
	for _, pg := range pages {
		r.m.Phys.Free(pg)
	}
	for i, pg := range held {
		if pg.Data()[0] != wantB[i] {
			t.Fatalf("held page %d: byte %#x, want %#x after migration", i, pg.Data()[0], wantB[i])
		}
	}
	for _, pg := range dense {
		r.m.Phys.Free(pg)
	}
}

// TestMigrateQuiescencePins pins the veto rules: a wired page, a page
// with a live mapping reference, or a page inside a checked-out run each
// disqualify their span, and releasing the pins makes the same span
// migrate.
func TestMigrateQuiescencePins(t *testing.T) {
	// 128 frames = span 0 (unusable: frame 0 sentinel) + span 1.  The only
	// way AllocContig can ever succeed is span 1 becoming whole.
	r := newMigrateRig(t, 128, 16, ShardedConfig{})
	ctx := r.m.Ctx(0)
	span, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatal(err)
	}
	// Keep four residents; free the rest.
	keep := []*vm.Page{span[0], span[10], span[20], span[21]}
	kept := map[*vm.Page]bool{span[0]: true, span[10]: true, span[20]: true, span[21]: true}
	for _, pg := range span {
		if !kept[pg] {
			r.m.Phys.Free(pg)
		}
	}
	// Pin them three ways: wired, mapped with a live reference, checked out
	// as a run.
	keep[0].Wire()
	b, err := r.sf.Alloc(ctx, keep[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.sf.AllocRun(ctx, keep[2:4], 0)
	if err != nil {
		t.Fatal(err)
	}

	if got := r.mig.MigrateBlocks(ctx, 4); got != 0 {
		t.Fatalf("migrated %d spans with pinned residents, want 0", got)
	}
	if st := r.mig.Stats(); st.BlocksSkipped == 0 || st.PagesMoved != 0 {
		t.Fatalf("stats skipped=%d moved=%d, want a skip and no moves", st.BlocksSkipped, st.PagesMoved)
	}
	if _, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan); !errors.Is(err, vm.ErrNoContig) {
		t.Fatalf("AllocContig = %v, want ErrNoContig while the span is pinned", err)
	}
	for i, pg := range keep {
		if pg.Frame() != span[0].Frame()+[]uint64{0, 10, 20, 21}[i] {
			t.Fatalf("pinned page %d moved to frame %d", i, pg.Frame())
		}
	}

	// Release every pin; the same span must now evacuate.
	keep[0].Unwire()
	r.sf.Free(ctx, b)
	r.sf.FreeRun(ctx, run)
	if got := r.mig.MigrateBlocks(ctx, 4); got != 1 {
		t.Fatalf("migrated %d spans after unpinning, want 1", got)
	}
	pages, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatalf("AllocContig after unpinned migration: %v", err)
	}
	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pages {
		r.m.Phys.Free(pg)
	}
}

// TestMigrateRemapsInactiveMapping pins the hash-remap path: an inactive
// cache entry keyed at a migrated frame is rewritten in place, keeps its
// bytes readable through the honest TLB, and still serves the next Alloc
// of the same page as a HIT — migration must not cost the cache its
// memory.
func TestMigrateRemapsInactiveMapping(t *testing.T) {
	r := newMigrateRig(t, 128, 8, ShardedConfig{})
	ctx := r.m.Ctx(0)
	span, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatal(err)
	}
	victim := span[5]
	b, err := r.sf.Alloc(ctx, victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.pm.Translate(ctx, b.KVA(), true)
	if err != nil {
		t.Fatal(err)
	}
	got.Data()[0] = 0xAB
	r.sf.Free(ctx, b) // inactive entry stays keyed at victim's frame
	for _, pg := range span {
		if pg != victim {
			r.m.Phys.Free(pg)
		}
	}

	oldFrame := victim.Frame()
	if got := r.mig.MigrateBlocks(ctx, 1); got != 1 {
		t.Fatalf("migrated %d spans, want 1", got)
	}
	if victim.Frame() == oldFrame {
		t.Fatal("victim page kept its frame through evacuation")
	}
	if st := r.mig.Stats(); st.HashRemaps != 1 {
		t.Fatalf("HashRemaps = %d, want 1", st.HashRemaps)
	}

	hitsBefore := r.sf.Stats().Hits
	b2, err := r.sf.Alloc(ctx, victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.sf.Stats().Hits; got != hitsBefore+1 {
		t.Fatalf("Hits = %d, want %d: the remapped entry must still serve hits", got, hitsBefore+1)
	}
	got2, err := r.pm.Translate(ctx, b2.KVA(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Data()[0] != 0xAB {
		t.Fatalf("read %#x through remapped entry, want 0xAB", got2.Data()[0])
	}
	r.sf.Free(ctx, b2)
	if _, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan); err != nil {
		t.Fatalf("AllocContig after hash-remap migration: %v", err)
	}
}

// TestMigrateParkedWindows pins both parked-window strategies.  A window
// mostly inside the victim span is force-laundered (one teardown beats
// remapping most of its slots); a window with a single slot inside is
// remapped in place and must still REVIVE for the same extent afterwards,
// reading true bytes through the honest TLB.
func TestMigrateParkedWindows(t *testing.T) {
	r := newMigrateRig(t, 256, 16, ShardedConfig{})
	ctx := r.m.Ctx(0)

	spanA, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatal(err)
	}
	spanB, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
	if err != nil {
		t.Fatal(err)
	}

	// Window 1: all four slots inside spanA -> forced launder.
	insideA := spanA[:4]
	r1, err := r.sf.AllocRun(ctx, insideA, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range insideA {
		pg, err := r.pm.Translate(ctx, r1.KVA(j), true)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(0x40 + j)
	}
	r.sf.FreeRun(ctx, r1)

	// Window 2: one slot from spanB, three from span 0 (never a candidate,
	// so those three frames stay put) -> in-place remap.
	extras := make([]*vm.Page, 3)
	for i := range extras {
		pg, err := r.m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if pg.Frame() >= uint64(migTestSpan) {
			t.Fatalf("extra page landed at frame %d, outside span 0", pg.Frame())
		}
		extras[i] = pg
	}
	mixed := append([]*vm.Page{spanB[0]}, extras...)
	r2, err := r.sf.AllocRun(ctx, mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range mixed {
		pg, err := r.pm.Translate(ctx, r2.KVA(j), true)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(0x60 + j)
	}
	r.sf.FreeRun(ctx, r2)

	// Empty both spans of everything but the parked residents.
	for _, pg := range spanA[4:] {
		r.m.Phys.Free(pg)
	}
	for _, pg := range spanB[1:] {
		r.m.Phys.Free(pg)
	}

	if got := r.mig.MigrateBlocks(ctx, 4); got != 2 {
		t.Fatalf("migrated %d spans, want 2", got)
	}
	st := r.mig.Stats()
	if st.ForcedLaunders == 0 {
		t.Fatalf("ForcedLaunders = 0: the all-inside window should have been torn down")
	}
	if st.WindowRemaps == 0 {
		t.Fatalf("WindowRemaps = 0: the one-slot window should have been rewritten in place")
	}

	// The remapped window must still revive for its extent — with the slot
	// now naming the page's NEW frame — and read true bytes.
	revivesBefore := r.sf.Stats().RunRevives
	r2b, err := r.sf.AllocRun(ctx, mixed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.sf.Stats().RunRevives; got != revivesBefore+1 {
		t.Fatalf("RunRevives = %d, want %d: remap must preserve revivability", got, revivesBefore+1)
	}
	for j := range mixed {
		pg, err := r.pm.Translate(ctx, r2b.KVA(j), false)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data()[0] != byte(0x60+j) {
			t.Fatalf("slot %d reads %#x, want %#x through remapped window", j, pg.Data()[0], byte(0x60+j))
		}
	}
	r.sf.FreeRun(ctx, r2b)

	// The laundered window is gone; a fresh run over the same pages
	// installs cold and still reads true.
	r1b, err := r.sf.AllocRun(ctx, insideA, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range insideA {
		pg, err := r.pm.Translate(ctx, r1b.KVA(j), false)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data()[0] != byte(0x40+j) {
			t.Fatalf("slot %d reads %#x, want %#x after forced launder", j, pg.Data()[0], byte(0x40+j))
		}
	}
	r.sf.FreeRun(ctx, r1b)
	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateChurnServeRace is the migration exclusion's -race workout:
// concurrent servers churn single, batched and run mappings (writes
// included, always through held references) while a defragmentation
// goroutine interleaves raw physical churn with migration passes.  Raw
// frees and migration share one goroutine — the quiescent-owner
// contract: a page's owner must not touch its storage in parallel with
// an evacuation copy.  The served pages sit eight to a span, so their
// spans are evacuation candidates and the race is real: the test runs
// until served pages have moved with their inactive entries remapped.
// Every read goes through the honest MMU, so a mapping path that misses
// a move or a leaked stale translation shows up as wrong bytes or a
// -race report.
func TestMigrateChurnServeRace(t *testing.T) {
	const entries = 32
	r := newMigrateRig(t, 2048, entries, ShardedConfig{ReclaimBatch: 4, PerCPUFree: 2})
	pages := make([]*vm.Page, 0, 48)
	for len(pages) < cap(pages) {
		span, err := r.m.Phys.AllocContig(migTestSpan, migTestSpan)
		if err != nil {
			t.Fatal(err)
		}
		for j, pg := range span {
			if j%8 == 3 {
				pg.Data()[0] = byte(len(pages))
				pages = append(pages, pg)
			} else {
				r.m.Phys.Free(pg)
			}
		}
	}
	// Warm the cache so the served pages have inactive entries to remap
	// from the first migration pass on.
	frames := make([]uint64, len(pages))
	for i, pg := range pages {
		frames[i] = pg.Frame()
		b, err := r.sf.Alloc(r.m.Ctx(0), pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.sf.Free(r.m.Ctx(0), b)
	}

	const servers = 3
	var stop atomic.Bool
	var served atomic.Int64 // server iterations, so the defrag thread starts mid-traffic
	var wg sync.WaitGroup
	for w := 0; w < servers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := r.m.Ctx(w)
			check := func(kva uint64, idx int) bool {
				got, err := r.pm.Translate(ctx, kva, false)
				if err != nil {
					t.Errorf("server %d: %v", w, err)
					return false
				}
				if got.Data()[0] != byte(idx) {
					t.Errorf("server %d: read %#x, want %#x — stale mapping survived migration",
						w, got.Data()[0], byte(idx))
					return false
				}
				return true
			}
			for i := 0; !stop.Load(); i++ {
				served.Add(1)
				switch i % 3 {
				case 0:
					idx := (i*(2*w+3) + w*11) % len(pages)
					b, err := r.sf.Alloc(ctx, pages[idx], NoWait)
					if errors.Is(err, ErrWouldBlock) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if !check(b.KVA(), idx) {
						return
					}
					r.sf.Free(ctx, b)
				case 1:
					n := 3 + (i+w)%3
					start := (i*(2*w+5) + w*13) % (len(pages) - n)
					bufs, err := r.sf.AllocBatch(ctx, pages[start:start+n], NoWait)
					if errors.Is(err, ErrWouldBlock) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					for j, b := range bufs {
						if !check(b.KVA(), start+j) {
							return
						}
					}
					r.sf.FreeBatch(ctx, bufs)
				case 2:
					n := 2 + (i+w)%3
					start := (i*(2*w+7) + w*17) % (len(pages) - n)
					run, err := r.sf.AllocRun(ctx, pages[start:start+n], NoWait)
					if errors.Is(err, ErrWouldBlock) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					for j := 0; j < n; j++ {
						if !check(run.KVA(j), start+j) {
							return
						}
					}
					r.sf.FreeRun(ctx, run)
				}
			}
		}(w)
	}

	// Defragmentation thread: raw churn and migration interleave on ONE
	// goroutine (the owner contract), racing only the mapping paths.  It
	// runs 120 rounds and then on, with the raw churn held level, until
	// served pages have moved and an inactive entry was remapped (bounded:
	// the assertions below report a run that never got there).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		ctx := r.m.Ctx(3)
		for spin := 0; served.Load() < 30 && spin < 1<<20; spin++ {
			runtime.Gosched()
		}
		var churn []*vm.Page
		for i := 0; i < 120 || i < 4000 && !servedMoved(pages, frames, r.mig); i++ {
			grow := 3
			if i < 60 {
				grow = 6
			}
			for j := 0; j < grow; j++ {
				pg, err := r.m.Phys.Alloc()
				if err != nil {
					t.Error(err)
					return
				}
				churn = append(churn, pg)
			}
			for j := 0; j < 3 && len(churn) > 0; j++ {
				pick := (i*7 + j*13) % len(churn)
				r.m.Phys.Free(churn[pick])
				churn = append(churn[:pick], churn[pick+1:]...)
			}
			r.mig.MigrateBlocks(ctx, 2)
		}
		for _, pg := range churn {
			r.m.Phys.Free(pg)
		}
	}()
	wg.Wait()

	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatal(err)
	}
	st := r.sf.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
	}
	for i, pg := range pages {
		if pg.Data()[0] != byte(i) {
			t.Fatalf("page %d byte %#x, want %#x after the race", i, pg.Data()[0], byte(i))
		}
		if ref, _, ok := r.sf.LookupRef(pg); ok && ref != 0 {
			t.Fatalf("page %d: ref = %d after drain", i, ref)
		}
	}
	if ms := r.mig.Stats(); !servedMoved(pages, frames, r.mig) {
		t.Fatalf("no served page moved with its entry remapped (%+v): the race never happened", ms)
	}
}

// servedMoved reports whether some page has left the frame it started at
// (frames) and the Migrator has remapped an inactive entry.  The raw
// churn pages are never mapped, so a hash remap is always a served one.
func servedMoved(pages []*vm.Page, frames []uint64, mig *Migrator) bool {
	if mig.Stats().HashRemaps == 0 {
		return false
	}
	for i, pg := range pages {
		if pg.Frame() != frames[i] {
			return true
		}
	}
	return false
}

// TestShardLockFollowsMigratingPage is the focused race for the frame
// re-check under the shard lock (lockPage): one goroutine bounces a few
// pages between the tiers of a two-tier pool while churners map them —
// single, vectored, beside filler pages that keep a small cache
// reclaiming so fresh entries are installed all the time — and read
// every mapping back through the honest MMU.  A mapping path that locked
// the shard of a frame its page had just left would key an entry at the
// wrong table slot, or touch a buffer under the wrong shard's lock; the
// frame-table invariant and -race catch it.
func TestShardLockFollowsMigratingPage(t *testing.T) {
	r := newMigrateRig(t, 512, 32, ShardedConfig{Shards: 4, ReclaimBatch: 2, PerCPUFree: 1})
	r.m.Phys.SetTierSplit(128)
	pages, err := r.m.Phys.AllocN(64)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		pg.Data()[0] = byte(i + 1)
	}
	hot, filler := pages[:4], pages[4:]

	const churners = 3
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		ctx := r.m.Ctx(3)
		for i := 0; i < 400; i++ {
			r.mig.MoveToTier(ctx, hot, i%2, 0)
		}
	}()
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := r.m.Ctx(w)
			check := func(b *Buf) bool {
				got, err := r.pm.Translate(ctx, b.KVA(), false)
				if err != nil {
					t.Errorf("churner %d: %v", w, err)
					return false
				}
				if want := b.Page().Data()[0]; got.Data()[0] != want {
					t.Errorf("churner %d: read %#x, want %#x", w, got.Data()[0], want)
					return false
				}
				return true
			}
			for i := 0; !stop.Load(); i++ {
				pg := hot[(i+w)%len(hot)]
				switch i % 3 {
				case 0:
					b, err := r.sf.Alloc(ctx, pg, NoWait)
					if errors.Is(err, ErrWouldBlock) {
						continue
					} else if err != nil {
						t.Error(err)
						return
					}
					ok := check(b)
					r.sf.Free(ctx, b)
					if !ok {
						return
					}
				case 1:
					bufs, err := r.sf.AllocBatch(ctx, []*vm.Page{pg, filler[(i*5+w)%len(filler)]}, NoWait)
					if errors.Is(err, ErrWouldBlock) {
						continue
					} else if err != nil {
						t.Error(err)
						return
					}
					ok := check(bufs[0]) && check(bufs[1])
					r.sf.FreeBatch(ctx, bufs)
					if !ok {
						return
					}
				case 2:
					// A filler page alone: reclaim pressure on the hot
					// pages' entries.
					b, err := r.sf.Alloc(ctx, filler[(i*3+w)%len(filler)], NoWait)
					if err == nil {
						r.sf.Free(ctx, b)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := checkFrameTable(r.sf.c.(*shardedCache)); err != nil {
		t.Fatal(err)
	}
	if st := r.sf.Stats(); st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after the race", st.Allocs, st.Frees)
	}
	for i, pg := range pages {
		if pg.Data()[0] != byte(i+1) {
			t.Fatalf("page %d reads %#x after the race, want %#x", i, pg.Data()[0], byte(i+1))
		}
	}
	if r.mig.Stats().TierMoves == 0 {
		t.Fatal("no tier move ever ran: the race was not exercised")
	}
}
