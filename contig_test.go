package sfbuf

// Acceptance test for the buddy physical-frame allocator: after a
// fragmentation-churn warmup, aligned AllocRun windows over AllocContig
// extents on the buddy-backed sharded engine regain superpage promotion
// (Promotions > 0) at <= 1/4 the page-table walks per page of the
// scattered batch + per-page-translation path.  BenchmarkAllocContig
// surfaces the same numbers; this test enforces them.

import (
	"testing"

	"sfbuf/internal/experiments"
)

type contigRecoveryResult struct {
	promotions uint64
	walksPage  float64
	contigFrac float64
	largestExt int
}

func driveContigRecovery(t testing.TB, useRuns bool, ops int) contigRecoveryResult {
	t.Helper()
	k, err := experiments.BootContigRecovery()
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
	buddy := driveContigRecovery(t, true, ops)
	scattered := driveContigRecovery(t, false, ops)
	t.Logf("buddy run: promotions=%d walks/page=%.4f contig=%.2f largest=%d",
		buddy.promotions, buddy.walksPage, buddy.contigFrac, buddy.largestExt)
	t.Logf("scattered batch: walks/page=%.4f", scattered.walksPage)

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
}

// TestAllocContigFacade exercises contiguous frames end to end on a
// figure engine: AllocContig extents come back aligned, and PhysStats
// reports through the facade types.
func TestAllocContigFacade(t *testing.T) {
	k := MustBoot(Config{
		Platform:     XeonMP(),
		Mapper:       SFBufKernel,
		Cache:        CacheGlobal,
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
	if st.ContigAllocs != 1 {
		t.Fatalf("PhysStats = %+v", st)
	}
	for _, pg := range pages {
		k.M.Phys.Free(pg)
	}
}
