package kcopy

import (
	"bytes"
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func rig(t *testing.T) (*smp.Machine, *pmap.Pmap, *smp.Context) {
	t.Helper()
	m := smp.NewMachine(arch.XeonMP(), 64, true)
	return m, pmap.New(m), m.Ctx(0)
}

const base = uint64(pmap.KVABaseI386)

func mapPages(t *testing.T, m *smp.Machine, pm *pmap.Pmap, ctx *smp.Context, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		pg, err := m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pm.KEnter(ctx, base+uint64(i)*vm.PageSize, pg)
	}
}

func TestCopyInOutRoundTrip(t *testing.T) {
	m, pm, ctx := rig(t)
	mapPages(t, m, pm, ctx, 3)
	want := make([]byte, 2*vm.PageSize+100)
	rand.New(rand.NewSource(21)).Read(want)

	// Unaligned start, spanning three pages.
	if err := CopyIn(ctx, pm, base+500, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := CopyOut(ctx, pm, got, base+500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("copy round trip corrupted data")
	}
}

// TestCopyInCopiesOnWrite: equal whole-page CopyIns share one block, and
// a partial CopyIn into one sharer must leave the other byte-identical.
func TestCopyInCopiesOnWrite(t *testing.T) {
	m, pm, ctx := rig(t)
	mapPages(t, m, pm, ctx, 2)
	want := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(5)).Read(want)
	for i := uint64(0); i < 2; i++ {
		if err := CopyIn(ctx, pm, base+i*vm.PageSize, want); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := pm.Translate(ctx, base, false)
	b, _ := pm.Translate(ctx, base+vm.PageSize, false)
	if &a.View()[0] != &b.View()[0] {
		t.Fatal("equal whole-page CopyIns did not share one block")
	}
	if err := CopyIn(ctx, pm, base+10, []byte{^want[10]}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, vm.PageSize)
	if err := CopyOut(ctx, pm, got, base+vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a partial CopyIn into one sharer changed the other")
	}
	if err := CopyOut(ctx, pm, got, base); err != nil {
		t.Fatal(err)
	}
	if got[10] != ^want[10] || !bytes.Equal(got[11:], want[11:]) {
		t.Fatal("the partial CopyIn lost its byte or the page's old contents")
	}
}

func TestCopyFaultsOnUnmapped(t *testing.T) {
	_, pm, ctx := rig(t)
	if err := CopyIn(ctx, pm, base, []byte{1}); err == nil {
		t.Fatal("copy into unmapped VA must fault")
	}
	if err := CopyOut(ctx, pm, make([]byte, 1), base); err == nil {
		t.Fatal("copy from unmapped VA must fault")
	}
}

func TestChecksumTouchesAndSums(t *testing.T) {
	m, pm, ctx := rig(t)
	mapPages(t, m, pm, ctx, 1)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = 1
	}
	CopyIn(ctx, pm, base, data)

	// Clear the accessed bit by re-entering the mapping, then checksum:
	// the PTE accessed bit must be set afterwards — that is the side
	// effect the checksum-offload experiments toggle.
	pg, _ := pm.Translate(ctx, base, false)
	ctx.InvalidateLocal(pmap.VPN(base))
	pm.KEnter(ctx, base, pg)
	if pte, _ := pm.Probe(base); pte.Accessed {
		t.Fatal("setup: accessed bit should be clear")
	}
	sum, err := Checksum(ctx, pm, base, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1000 {
		t.Fatalf("sum = %d, want 1000", sum)
	}
	if pte, _ := pm.Probe(base); !pte.Accessed {
		t.Fatal("checksum must set the accessed bit")
	}
}

func TestCopyChargesPerByte(t *testing.T) {
	m, pm, ctx := rig(t)
	mapPages(t, m, pm, ctx, 1)
	m.ResetCounters()
	// Prime the TLB so the measured copy is pure copy cost.
	if err := CopyIn(ctx, pm, base, []byte{0}); err != nil {
		t.Fatal(err)
	}
	before := m.CPU(0).Cycles()
	if err := CopyIn(ctx, pm, base, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	got := m.CPU(0).Cycles() - before
	want := cycles.PerByte(m.Plat.Cost.CopyPerByte, 1000)
	if got != want {
		t.Fatalf("copy cost = %d, want %d", got, want)
	}
}

func TestCopyReadsThroughStaleTLB(t *testing.T) {
	// The whole point of the honest MMU: a copy through a stale TLB
	// entry moves the WRONG page's bytes.
	m, pm, ctx := rig(t)
	p1, _ := m.Phys.Alloc()
	p2, _ := m.Phys.Alloc()
	p1.Data()[0] = 0x11
	p2.Data()[0] = 0x22
	pm.KEnter(ctx, base, p1)
	one := make([]byte, 1)
	CopyOut(ctx, pm, one, base) // TLB now caches p1
	pm.KEnter(ctx, base, p2)    // remap without invalidation
	CopyOut(ctx, pm, one, base)
	if one[0] != 0x11 {
		t.Fatalf("read %#x: stale TLB should have served p1", one[0])
	}
	ctx.InvalidateLocal(pmap.VPN(base))
	CopyOut(ctx, pm, one, base)
	if one[0] != 0x22 {
		t.Fatal("after invalidation the copy must see p2")
	}
}

// runRig boots a sharded-cache kernel piecewise so kcopy's run calls can
// be exercised against a real contiguous window and its fallback.
func runRig(t *testing.T) (*smp.Machine, *pmap.Pmap, *smp.Context, sfbuf.Mapper, []*vm.Page) {
	t.Helper()
	m := smp.NewMachine(arch.XeonMPHTT(), 256, true)
	pm := pmap.New(m)
	arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	sf, err := sfbuf.NewI386Sharded(m, pm, arena, 64, sfbuf.ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := m.Phys.AllocN(6)
	if err != nil {
		t.Fatal(err)
	}
	return m, pm, m.Ctx(0), sf, pages
}

func TestCopyRunRoundTrip(t *testing.T) {
	m, pm, ctx, sf, pages := runRig(t)
	run, err := sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.FreeRun(ctx, run)

	src := make([]byte, 3*vm.PageSize+123)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(src)
	const off = vm.PageSize/2 + 9
	if err := CopyInRun(ctx, pm, run, off, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := CopyOutRun(ctx, pm, dst, run, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("run round trip corrupted data")
	}

	// The whole multi-page copy crossed on ONE walk per call (plus the
	// window being cold exactly once): re-copy warm and count.
	before := m.SnapshotCounters()
	if err := CopyOutRun(ctx, pm, dst, run, off); err != nil {
		t.Fatal(err)
	}
	if d := m.SnapshotCounters().Sub(before); d.PTWalks != 0 {
		t.Fatalf("warm run copy walked %d times, want 0", d.PTWalks)
	}
}

// TestCopyRunFallbackMatchesVec pins the degraded path: on a
// non-contiguous run the run copies are exactly the vectored per-page
// copies, bytes and cycles alike.
func TestCopyRunFallbackMatchesVec(t *testing.T) {
	drive := func(useRun bool) (int64, []byte) {
		m := smp.NewMachine(arch.XeonMPHTT(), 256, true)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		sf, err := sfbuf.NewI386(m, pm, arena, 64) // global cache: scattered runs
		if err != nil {
			t.Fatal(err)
		}
		pages, err := m.Phys.AllocN(4)
		if err != nil {
			t.Fatal(err)
		}
		ctx := m.Ctx(0)
		run, err := sf.AllocRun(ctx, pages, 0)
		if err != nil {
			t.Fatal(err)
		}
		if run.Contiguous() {
			t.Fatal("global cache must yield a scattered run")
		}
		src := make([]byte, 2*vm.PageSize+77)
		rand.New(rand.NewSource(3)).Read(src)
		dst := make([]byte, len(src))
		if useRun {
			if err := CopyInRun(ctx, pm, run, 100, src); err != nil {
				t.Fatal(err)
			}
			if err := CopyOutRun(ctx, pm, dst, run, 100); err != nil {
				t.Fatal(err)
			}
		} else {
			bufs := run.Bufs()
			if err := CopyInVec(ctx, pm, bufs, 100, src); err != nil {
				t.Fatal(err)
			}
			if err := CopyOutVec(ctx, pm, dst, bufs, 100); err != nil {
				t.Fatal(err)
			}
		}
		sf.FreeRun(ctx, run)
		if !bytes.Equal(src, dst) {
			t.Fatal("round trip corrupted data")
		}
		return int64(m.TotalCycles()), dst
	}
	rc, _ := drive(true)
	vc, _ := drive(false)
	if rc != vc {
		t.Errorf("fallback run copy cycles %d != vectored copy cycles %d", rc, vc)
	}
}

// TestChecksumRunMatchesChecksum pins ChecksumRun's result against the
// per-page Checksum on the same data, including unaligned spans, and
// verifies the ranged-translate economy: one walk for the whole span
// instead of one per page crossed.
func TestChecksumRunMatchesChecksum(t *testing.T) {
	m, pm, ctx := rig(t)
	mapPages(t, m, pm, ctx, 8)
	data := make([]byte, 6*vm.PageSize)
	rand.New(rand.NewSource(5)).Read(data)
	if err := CopyIn(ctx, pm, base, data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int }{
		{0, 6 * vm.PageSize},
		{100, 3*vm.PageSize + 7},
		{vm.PageSize - 1, 2},
		{17, 300},
	} {
		want := refByteSum(data[tc.off : tc.off+tc.n])
		perPage, err := Checksum(ctx, pm, base+uint64(tc.off), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChecksumRun(ctx, pm, base+uint64(tc.off), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if perPage != want || got != want {
			t.Errorf("off=%d, n=%d: Checksum %d, ChecksumRun %d, byte loop %d", tc.off, tc.n, perPage, got, want)
		}
	}

	// Economy: flush the TLB, then one multi-page ChecksumRun must charge
	// exactly one walk where the per-page loop charges one per page.
	const span = 6
	ctx.FlushLocalTLB()
	before := m.SnapshotCounters()
	if _, err := ChecksumRun(ctx, pm, base, span*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if d := m.SnapshotCounters().Sub(before); d.PTWalks != 1 {
		t.Errorf("ChecksumRun walks = %d, want 1", d.PTWalks)
	}
	ctx.FlushLocalTLB()
	before = m.SnapshotCounters()
	if _, err := Checksum(ctx, pm, base, span*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	if d := m.SnapshotCounters().Sub(before); d.PTWalks != uint64(span) {
		t.Errorf("Checksum walks = %d, want %d", d.PTWalks, span)
	}
}

func TestChecksumRunFaultsOnUnmapped(t *testing.T) {
	_, pm, ctx := rig(t)
	if _, err := ChecksumRun(ctx, pm, base, 3*vm.PageSize); err == nil {
		t.Fatal("ChecksumRun over unmapped VA must fault")
	}
}
