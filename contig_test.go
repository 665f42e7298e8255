package sfbuf

// Acceptance test for the buddy physical-frame allocator: after a
// fragmentation-churn warmup, aligned AllocRun windows over AllocContig
// extents on the buddy-backed sharded engine regain superpage promotion
// (Promotions > 0) at <= 1/4 the page-table walks per page of the
// scattered batch + per-page-translation path, while a LIFO-backed
// kernel never recovers contiguity at all.  BenchmarkAllocContig surfaces
// the same numbers; this test enforces them.

import (
	"errors"
	"testing"

	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/vm"
)

type contigRecoveryResult struct {
	promotions uint64
	walksPage  float64
	contigFrac float64
	largestExt int
}

func driveContigRecovery(t testing.TB, physBuddy kernel.Tri, useRuns bool, ops int) contigRecoveryResult {
	t.Helper()
	k, err := experiments.BootContigRecovery(physBuddy)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.FragmentPhys(k); err != nil {
		t.Fatal(err)
	}
	k.Reset()
	superBefore := k.Pmap.SuperStats()
	done, frac, err := experiments.ChurnFrag(k, ops, experiments.ContigRecoveryPages, useRuns)
	if err != nil {
		t.Fatal(err)
	}
	snap := k.M.SnapshotCounters()
	return contigRecoveryResult{
		promotions: k.Pmap.SuperStats().Promotions - superBefore.Promotions,
		walksPage:  float64(snap.PTWalks) / float64(done),
		contigFrac: frac,
		largestExt: k.PhysStats().LargestFreeExtent,
	}
}

func TestContigPromotionRecovery(t *testing.T) {
	const ops = 64 * experiments.ContigRecoveryPages
	buddy := driveContigRecovery(t, kernel.Auto, true, ops)
	lifoRun := driveContigRecovery(t, kernel.Off, true, ops)
	scattered := driveContigRecovery(t, kernel.Off, false, ops)
	t.Logf("buddy run: promotions=%d walks/page=%.4f contig=%.2f largest=%d",
		buddy.promotions, buddy.walksPage, buddy.contigFrac, buddy.largestExt)
	t.Logf("lifo run: promotions=%d walks/page=%.4f contig=%.2f largest=%d",
		lifoRun.promotions, lifoRun.walksPage, lifoRun.contigFrac, lifoRun.largestExt)
	t.Logf("lifo scattered batch: walks/page=%.4f", scattered.walksPage)

	// The recovery criterion: churned frames coalesced back into aligned
	// extents, and the aligned run windows over them promote again.
	if buddy.contigFrac < 0.9 {
		t.Errorf("buddy contig fraction = %.2f, want >= 0.9 after fragmentation churn", buddy.contigFrac)
	}
	if buddy.promotions == 0 {
		t.Error("buddy-backed runs earned no superpage promotions after churn")
	}
	if buddy.walksPage*4 > scattered.walksPage {
		t.Errorf("buddy run walks/page = %.4f, want <= 1/4 of scattered path %.4f",
			buddy.walksPage, scattered.walksPage)
	}
	// The LIFO pool demonstrates the disease: zero contiguity, zero
	// promotions, forever.
	if lifoRun.contigFrac != 0 {
		t.Errorf("LIFO contig fraction = %.2f, want 0", lifoRun.contigFrac)
	}
	if lifoRun.promotions != 0 {
		t.Errorf("LIFO runs promoted %d windows over scattered frames", lifoRun.promotions)
	}
}

// TestAllocContigFacade exercises the public knob end to end: PhysBuddy
// forced on boots the buddy allocator on any engine, AllocContig extents
// come back aligned, and PhysStats reports through the facade types.
func TestAllocContigFacade(t *testing.T) {
	k := MustBoot(Config{
		Platform:     XeonMP(),
		Mapper:       SFBufKernel,
		Cache:        CacheGlobal, // Auto would say LIFO here...
		PhysBuddy:    On,          // ...but On overrides
		PhysPages:    2048,
		CacheEntries: 64,
	})
	pages, err := k.AllocPhysContig(128)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		if pg.Frame() != pages[0].Frame()+uint64(i) {
			t.Fatalf("page %d breaks contiguity", i)
		}
	}
	var st PhysStats = k.PhysStats()
	if !st.Buddy || st.ContigAllocs != 1 {
		t.Fatalf("PhysStats = %+v", st)
	}
	for _, pg := range pages {
		k.M.Phys.Free(pg)
	}
	// And the default figure configuration still refuses: its LIFO pool
	// is the bit-exact seed allocator.
	g := MustBoot(Config{Platform: XeonMP(), Mapper: SFBufKernel, Cache: CacheGlobal,
		PhysPages: 256, CacheEntries: 64})
	if _, err := g.AllocPhysContig(8); !errors.Is(err, ErrNoContig) {
		t.Fatalf("LIFO AllocPhysContig = %v, want ErrNoContig", err)
	}
	if _, err := vm.NewPhysMem(8, false).AllocContig(2, 1); !errors.Is(err, vm.ErrNoContig) {
		t.Fatal("vm-level LIFO AllocContig must refuse")
	}
}
