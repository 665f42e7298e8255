package kva

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfbuf/internal/vm"
)

const testBase = 0xC000_0000

func TestAllocFreeCoalesce(t *testing.T) {
	a := NewArena(testBase, 16*vm.PageSize)
	v1, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := a.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 0 {
		t.Fatalf("free pages = %d, want 0", a.FreePages())
	}
	// Free out of order; the arena must coalesce back to a single span.
	a.Free(v2)
	a.Free(v1)
	a.Free(v3)
	if a.FreeRanges() != 1 {
		t.Fatalf("free ranges = %d, want 1 (coalescing failed)", a.FreeRanges())
	}
	if a.FreePages() != 16 {
		t.Fatalf("free pages = %d, want 16", a.FreePages())
	}
}

func TestExhaustion(t *testing.T) {
	a := NewArena(testBase, 4*vm.PageSize)
	if _, err := a.Alloc(5); err != ErrExhausted {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	v, _ := a.Alloc(4)
	if _, err := a.Alloc(1); err != ErrExhausted {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	a.Free(v)
	if _, err := a.Alloc(4); err != nil {
		t.Fatalf("alloc after free failed: %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := NewArena(testBase, 4*vm.PageSize)
	v, _ := a.Alloc(1)
	a.Free(v)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free(v)
}

func TestFreeOfUnallocatedPanics(t *testing.T) {
	a := NewArena(testBase, 4*vm.PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("free of never-allocated address must panic")
		}
	}()
	a.Free(testBase + vm.PageSize)
}

func TestMisalignedArenaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned arena must panic")
		}
	}()
	NewArena(testBase+1, vm.PageSize)
}

func TestPeakTracking(t *testing.T) {
	a := NewArena(testBase, 8*vm.PageSize)
	v1, _ := a.Alloc(3)
	v2, _ := a.Alloc(4)
	a.Free(v1)
	a.Free(v2)
	if a.PeakPages() != 7 {
		t.Fatalf("peak = %d, want 7", a.PeakPages())
	}
	if a.InUsePages() != 0 {
		t.Fatalf("in use = %d, want 0", a.InUsePages())
	}
	if a.Allocs() != 2 {
		t.Fatalf("allocs = %d, want 2", a.Allocs())
	}
}

// TestNoOverlap allocates and frees randomly and checks that live ranges
// never overlap and accounting always balances.
func TestNoOverlap(t *testing.T) {
	const pages = 64
	a := NewArena(testBase, pages*vm.PageSize)
	rng := rand.New(rand.NewSource(7))
	type alloc struct {
		va uint64
		n  int
	}
	var live []alloc
	inUse := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 && inUse < pages {
			n := rng.Intn(pages-inUse) + 1
			va, err := a.Alloc(n)
			if err != nil {
				continue // fragmentation can legitimately fail first-fit
			}
			for _, other := range live {
				aEnd := va + uint64(n)*vm.PageSize
				oEnd := other.va + uint64(other.n)*vm.PageSize
				if va < oEnd && other.va < aEnd {
					t.Fatalf("overlap: [%#x,%d) with [%#x,%d)", va, n, other.va, other.n)
				}
			}
			live = append(live, alloc{va, n})
			inUse += n
		} else if len(live) > 0 {
			i := rng.Intn(len(live))
			a.Free(live[i].va)
			inUse -= live[i].n
			live = append(live[:i], live[i+1:]...)
		}
		if a.InUsePages() != inUse {
			t.Fatalf("in-use accounting drifted: %d vs %d", a.InUsePages(), inUse)
		}
	}
	for _, l := range live {
		a.Free(l.va)
	}
	if a.FreeRanges() != 1 || a.FreePages() != pages {
		t.Fatalf("final state ranges=%d pages=%d", a.FreeRanges(), a.FreePages())
	}
}

// Property: allocations are always page-aligned and inside the arena.
func TestQuickAlignmentAndBounds(t *testing.T) {
	a := NewArena(testBase, 128*vm.PageSize)
	f := func(n uint8) bool {
		pages := int(n)%16 + 1
		va, err := a.Alloc(pages)
		if err != nil {
			return true // exhaustion is legal
		}
		defer a.Free(va)
		if va%vm.PageSize != 0 {
			return false
		}
		return va >= testBase && va+uint64(pages)*vm.PageSize <= testBase+128*vm.PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAligned(t *testing.T) {
	a := NewArena(testBase, 128*vm.PageSize)
	// Disturb the arena so the aligned request lands mid-span.
	pad, err := a.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.AllocAligned(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if va%(8*vm.PageSize) != 0 {
		t.Fatalf("va %#x not aligned to 8 pages", va)
	}
	if a.Splits() == 0 {
		t.Error("mid-span aligned allocation should have split a free range")
	}
	coalesces := a.Coalesces()
	a.Free(va)
	a.Free(pad)
	if a.Coalesces() <= coalesces {
		t.Error("frees should have coalesced neighbors")
	}
	if a.FreeRanges() != 1 || a.FreePages() != 128 {
		t.Fatalf("final state ranges=%d pages=%d", a.FreeRanges(), a.FreePages())
	}
	if a.LargestFreeRun() != 128 {
		t.Fatalf("largest free run = %d, want 128", a.LargestFreeRun())
	}
	if _, err := a.AllocAligned(4, 3); err == nil {
		t.Fatal("non-power-of-two alignment must be rejected")
	}
}

func TestAllocWindowGuard(t *testing.T) {
	a := NewArena(testBase, 64*vm.PageSize)
	w1, err := a.AllocWindow(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := a.AllocWindow(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The guard page is part of the reservation: the second window must
	// start beyond usable+guard of the first.
	if w2 < w1+5*vm.PageSize {
		t.Fatalf("guard not reserved: w1=%#x w2=%#x", w1, w2)
	}
	a.Free(w1)
	a.Free(w2)
	if a.FreeRanges() != 1 || a.FreePages() != 64 {
		t.Fatalf("windows did not free whole: ranges=%d pages=%d", a.FreeRanges(), a.FreePages())
	}
}

// TestAllocWindowRejects: AllocWindow refuses a window with no usable
// pages, a negative guard and a non-power-of-two alignment, and reports
// ErrExhausted once the arena cannot fit the window and its guard.
func TestAllocWindowRejects(t *testing.T) {
	a := NewArena(testBase, 8*vm.PageSize)
	for _, c := range []struct{ pages, guard, align int }{
		{0, 0, 1}, {0, 1, 1}, {-1, 1, 1}, {1, -1, 1}, {1, 0, 3}, {1, 0, 0},
	} {
		if _, err := a.AllocWindow(c.pages, c.guard, c.align); err == nil || err == ErrExhausted {
			t.Errorf("AllocWindow(%d, %d, %d) = %v, want an invalid-argument error", c.pages, c.guard, c.align, err)
		}
	}
	if a.Allocs() != 0 || a.FreePages() != 8 {
		t.Fatalf("rejected windows touched the arena: allocs=%d free=%d", a.Allocs(), a.FreePages())
	}
	if _, err := a.AllocWindow(8, 1, 1); err != ErrExhausted {
		t.Fatalf("window plus guard wider than the arena: err = %v, want ErrExhausted", err)
	}
	if _, err := a.AllocWindow(7, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocWindow(1, 0, 1); err != ErrExhausted {
		t.Fatalf("full arena: err = %v, want ErrExhausted", err)
	}
}
