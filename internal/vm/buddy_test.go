package vm

import (
	"errors"
	"math/rand"
	"testing"
)

// checkBuddyInvariants asserts the structural invariants of the buddy
// free lists: blocks are aligned to their size, in range, non-overlapping,
// and their page total matches the free counter.
func checkBuddyInvariants(t *testing.T, pm *PhysMem) {
	t.Helper()
	pm.mu.Lock()
	defer pm.mu.Unlock()
	covered := make(map[uint64]bool)
	total := 0
	for sock := range pm.orders {
		sockTotal := 0
		for k := range pm.orders[sock] {
			for _, start := range pm.orders[sock][k].starts {
				size := uint64(1) << k
				if start%size != 0 {
					t.Fatalf("order-%d block at %d is not size-aligned", k, start)
				}
				if start == 0 || start+size-1 > uint64(len(pm.pages)) {
					t.Fatalf("order-%d block at %d out of range", k, start)
				}
				if pm.SocketOfFrame(start) != sock || pm.SocketOfFrame(start+size-1) != sock {
					t.Fatalf("order-%d block at %d straddles or escapes socket %d", k, start, sock)
				}
				for f := start; f < start+size; f++ {
					if covered[f] {
						t.Fatalf("frame %d covered by two free blocks", f)
					}
					covered[f] = true
				}
				sockTotal += int(size)
			}
		}
		if sockTotal != pm.freeBySock[sock] {
			t.Fatalf("socket %d free blocks cover %d pages, counter says %d", sock, sockTotal, pm.freeBySock[sock])
		}
		total += sockTotal
	}
	if total != pm.freePages {
		t.Fatalf("free blocks cover %d pages, counter says %d", total, pm.freePages)
	}
}

// TestFreshPoolHandsOutAscendingFrames: a fresh pool hands out frames
// 1, 2, 3, ... n — the order the seed's LIFO stack produced, which the
// figure kernels' exact replay rests on.
func TestFreshPoolHandsOutAscendingFrames(t *testing.T) {
	const frames = 300
	pm := NewPhysMem(frames, false)
	for i := 0; i < frames; i++ {
		pg, err := pm.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if pg.Frame() != uint64(i+1) {
			t.Fatalf("alloc %d: frame %d, want %d", i, pg.Frame(), i+1)
		}
	}
	if _, err := pm.Alloc(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("exhausted alloc = %v, want ErrNoMemory", err)
	}
}

func TestBuddyAllocContigAlignmentAndOrder(t *testing.T) {
	pm := NewPhysMem(4096, true)
	for _, tc := range []struct{ n, align int }{
		{1, 1}, {3, 1}, {16, 16}, {100, 128}, {512, 512},
	} {
		pages, err := pm.AllocContig(tc.n, tc.align)
		if err != nil {
			t.Fatalf("AllocContig(%d, %d): %v", tc.n, tc.align, err)
		}
		if len(pages) != tc.n {
			t.Fatalf("AllocContig(%d, %d) returned %d pages", tc.n, tc.align, len(pages))
		}
		if pages[0].Frame()%uint64(tc.align) != 0 {
			t.Fatalf("AllocContig(%d, %d) start frame %d not aligned", tc.n, tc.align, pages[0].Frame())
		}
		for i, pg := range pages {
			if pg.Frame() != pages[0].Frame()+uint64(i) {
				t.Fatalf("AllocContig(%d, %d) page %d frame %d breaks contiguity", tc.n, tc.align, i, pg.Frame())
			}
			if pg.Data() == nil {
				t.Fatal("backed AllocContig page has no storage")
			}
		}
		checkBuddyInvariants(t, pm)
		for _, pg := range pages {
			pm.Free(pg)
		}
	}
	checkBuddyInvariants(t, pm)
	if _, err := pm.AllocContig(8, 3); err == nil {
		t.Fatal("non-power-of-two alignment must be rejected")
	}
	if _, err := pm.AllocContig(MaxContigPages+1, 1); !errors.Is(err, ErrNoContig) {
		t.Fatalf("over-wide AllocContig = %v, want ErrNoContig", err)
	}
}

func TestBuddyContigFailsUnderFragmentationThenRecovers(t *testing.T) {
	pm := NewPhysMem(256, false)
	all, err := pm.AllocN(256)
	if err != nil {
		t.Fatal(err)
	}
	// Free every other page: no two adjacent frames free, so no order>=1
	// block can exist and contiguity is gone.
	for i := 0; i < len(all); i += 2 {
		pm.Free(all[i])
	}
	checkBuddyInvariants(t, pm)
	if _, err := pm.AllocContig(2, 1); !errors.Is(err, ErrNoContig) {
		t.Fatalf("fragmented AllocContig = %v, want ErrNoContig", err)
	}
	// Scattered AllocN must still serve from the fragments.
	scattered, err := pm.AllocN(64)
	if err != nil {
		t.Fatalf("fragmented AllocN: %v", err)
	}
	for _, pg := range scattered {
		pm.Free(pg)
	}
	// Freeing the other half coalesces everything back: contiguity is a
	// renewable resource, which is the whole point of the buddy refactor.
	for i := 1; i < len(all); i += 2 {
		pm.Free(all[i])
	}
	checkBuddyInvariants(t, pm)
	st := pm.PhysStats()
	if st.Coalesces == 0 {
		t.Fatal("coalesce counter never moved")
	}
	if st.LargestFreeExtent != 256 {
		t.Fatalf("largest free extent = %d after full drain, want 256", st.LargestFreeExtent)
	}
	pages, err := pm.AllocContig(128, 128)
	if err != nil {
		t.Fatalf("post-recovery AllocContig: %v", err)
	}
	for _, pg := range pages {
		pm.Free(pg)
	}
}

// TestBuddyChurnCoalescesBack is the fragmentation-churn invariant test:
// a random mix of single, scattered and contiguous allocations freed in
// random order must leave the allocator exactly as coalesced as it
// booted, with the invariants intact at every step.
func TestBuddyChurnCoalescesBack(t *testing.T) {
	const frames = 2048
	pm := NewPhysMem(frames, false)
	boot := pm.PhysStats()
	rng := rand.New(rand.NewSource(7))
	var held [][]*Page
	for step := 0; step < 4000; step++ {
		if rng.Intn(2) == 0 && pm.FreeFrames() > 64 {
			var pages []*Page
			var err error
			switch rng.Intn(3) {
			case 0:
				var p *Page
				p, err = pm.Alloc()
				pages = []*Page{p}
			case 1:
				pages, err = pm.AllocN(1 + rng.Intn(48))
			default:
				pages, err = pm.AllocContig(1+rng.Intn(48), 1<<rng.Intn(4))
				if errors.Is(err, ErrNoContig) {
					continue
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, pages)
		} else if len(held) > 0 {
			pick := rng.Intn(len(held))
			for _, pg := range held[pick] {
				pm.Free(pg)
			}
			held = append(held[:pick], held[pick+1:]...)
		}
		if step%512 == 0 {
			checkBuddyInvariants(t, pm)
		}
	}
	for _, pages := range held {
		for _, pg := range pages {
			pm.Free(pg)
		}
	}
	checkBuddyInvariants(t, pm)
	st := pm.PhysStats()
	if st.FreeFrames != frames {
		t.Fatalf("free frames = %d after drain, want %d", st.FreeFrames, frames)
	}
	if st.LargestFreeExtent != boot.LargestFreeExtent {
		t.Fatalf("largest free extent = %d after drain, want the boot cover's %d",
			st.LargestFreeExtent, boot.LargestFreeExtent)
	}
	if st.Splits == 0 || st.Coalesces == 0 {
		t.Fatalf("split/coalesce counters = %d/%d, want both > 0", st.Splits, st.Coalesces)
	}
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
	}
	// Contiguity has fully recovered: the widest extent is available again.
	pages, err := pm.AllocContig(MaxContigPages, MaxContigPages)
	if err != nil {
		t.Fatalf("AllocContig after churn drain: %v", err)
	}
	for _, pg := range pages {
		pm.Free(pg)
	}
}

func TestBuddyAllocNPrefersContiguity(t *testing.T) {
	pm := NewPhysMem(1024, false)
	pages, err := pm.AllocN(100)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		if pg.Frame() != pages[0].Frame()+uint64(i) {
			t.Fatalf("fresh AllocN page %d frame %d: want one contiguous extent", i, pg.Frame())
		}
	}
	for _, pg := range pages {
		pm.Free(pg)
	}
}

func TestBuddyFreeZeroesBackedPagesOffTheLock(t *testing.T) {
	pm := NewPhysMem(4, true)
	ps, err := pm.AllocContig(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps[0].Data()[7] = 0xAA
	ps[1].Data()[0] = 0xBB
	pm.Free(ps[0])
	pm.Free(ps[1])
	q, err := pm.AllocContig(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q[0].Data()[7] != 0 || q[1].Data()[0] != 0 {
		t.Fatal("recycled buddy pages leaked previous contents")
	}
}

func TestBuddyStatsShape(t *testing.T) {
	pm := NewPhysMem(96, false)
	st := pm.PhysStats()
	if st.Frames != 96 || st.FreeFrames != 96 {
		t.Fatalf("boot stats = %+v", st)
	}
	if st.LargestFreeExtent != 96 {
		t.Fatalf("boot largest extent = %d, want 96", st.LargestFreeExtent)
	}
	if len(st.FreeBlocks) != MaxContigOrder+1 {
		t.Fatalf("FreeBlocks has %d orders", len(st.FreeBlocks))
	}
	if _, err := pm.AllocContig(8, 8); err != nil {
		t.Fatal(err)
	}
	st = pm.PhysStats()
	if st.ContigAllocs != 1 {
		t.Fatalf("ContigAllocs = %d, want 1", st.ContigAllocs)
	}
}

// TestBuddyAllocNSparesLargeBlocks pins the address-ordered gather
// policy: when churn has left scattered fragments below an intact
// superpage-capable block, small AllocN requests must be served from the
// fragments instead of splitting the big block — the failure mode that
// would let routine small allocations destroy the contiguity AllocContig
// exists to recover.
func TestBuddyAllocNSparesLargeBlocks(t *testing.T) {
	pm := NewPhysMem(3*MaxContigPages, false)
	// Occupy everything below the top maximal block (the boot cover holds
	// 2*MaxContigPages-1 frames there), then free every other page of
	// that span: the free space is ~1024 scattered low singles plus one
	// intact maximal block above them.
	low, err := pm.AllocN(2*MaxContigPages - 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(low); i += 2 {
		pm.Free(low[i])
	}
	before := pm.PhysStats()
	if before.FreeBlocks[MaxContigOrder] != 1 {
		t.Fatalf("setup: %d maximal blocks free, want 1 (blocks %v)",
			before.FreeBlocks[MaxContigOrder], before.FreeBlocks)
	}
	var got []*Page
	for i := 0; i < 64; i++ {
		pages, err := pm.AllocN(2)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pages...)
	}
	if st := pm.PhysStats(); st.FreeBlocks[MaxContigOrder] != 1 {
		t.Fatalf("small AllocN churn split the maximal block: FreeBlocks = %v", st.FreeBlocks)
	}
	// The big block is still there for the contiguity consumer.
	wide, err := pm.AllocContig(MaxContigPages, MaxContigPages)
	if err != nil {
		t.Fatalf("AllocContig after small churn: %v", err)
	}
	for _, pg := range wide {
		pm.Free(pg)
	}
	for _, pg := range got {
		pm.Free(pg)
	}
}
