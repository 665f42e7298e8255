package pmap

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// TestMMUHotPathsAllocateNothing: the operations under every mapping —
// a translate that misses a full TLB (walk, evict, fill), a PTE install
// and removal in an existing page-table page, and a ranged translate into
// a reused slice — must not touch the heap once warm.
func TestMMUHotPathsAllocateNothing(t *testing.T) {
	p := arch.XeonMPHTT()
	m := smp.NewMachine(p, 4*p.TLBEntries, false)
	pm := New(m)
	ctx := m.Ctx(0)
	pages, err := m.Phys.AllocN(2 * p.TLBEntries)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(KVABaseI386)
	pm.KEnterRun(ctx, base, pages)
	va := func(i int) uint64 { return base + uint64(i%len(pages))*vm.PageSize }
	for i := range pages { // fill the TLB; from here every new page evicts
		if _, err := pm.Translate(ctx, va(i), false); err != nil {
			t.Fatal(err)
		}
	}
	evictions := m.CPU(0).TLBStats().Evictions

	i := 0
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(500, f); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, n)
		}
	}
	check("Translate miss at capacity", func() {
		i++
		if pg, err := pm.Translate(ctx, va(i), i%2 == 0); err != nil || pg != pages[i%len(pages)] {
			t.Fatalf("Translate(%d) = %v, %v", i, pg, err)
		}
	})
	if got := m.CPU(0).TLBStats().Evictions - evictions; got < 500 {
		t.Fatalf("only %d evictions: the translate guard did not run at capacity", got)
	}
	check("KEnter/KRemove on an existing leaf", func() {
		i++
		pm.KRemove(ctx, va(i))
		pm.KEnter(ctx, va(i), pages[i%len(pages)])
	})
	out := make([]*vm.Page, 0, 32)
	vpns := make([]uint64, 32)
	check("32-page TranslateRun into a reused slice", func() {
		i += 32
		for k := range vpns {
			vpns[k] = VPN(va(i)) + uint64(k)
		}
		ctx.InvalidateLocalRange(vpns) // so the run walks and refills
		var err error
		if out, err = pm.TranslateRun(ctx, va(i-i%32), 32, false, out[:0]); err != nil || len(out) != 32 {
			t.Fatalf("TranslateRun = %d pages, %v", len(out), err)
		}
	})
}
