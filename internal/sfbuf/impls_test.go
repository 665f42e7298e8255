package sfbuf

import (
	"errors"
	"testing"
	"testing/quick"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// --- amd64 ---

func newAMD64Rig(t *testing.T) (*smp.Machine, *pmap.Pmap, *AMD64) {
	t.Helper()
	m := smp.NewMachine(arch.OpteronMP(), 128, true)
	pm := pmap.New(m)
	return m, pm, NewAMD64(m, pm)
}

func TestAMD64AllocIsDirectMap(t *testing.T) {
	m, pm, sf := newAMD64Rig(t)
	ctx := m.Ctx(0)
	pg, _ := m.Phys.Alloc()
	pg.Data()[5] = 0x42
	b, err := sf.Alloc(ctx, pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.KVA() != pm.DirectVA(pg) {
		t.Fatal("kva must be the direct-map address")
	}
	if b.Page() != pg {
		t.Fatal("page accessor wrong")
	}
	got, err := pm.Translate(ctx, b.KVA(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[5] != 0x42 {
		t.Fatal("direct map data access wrong")
	}
}

func TestAMD64SameBufForSamePage(t *testing.T) {
	m, _, sf := newAMD64Rig(t)
	ctx0, ctx1 := m.Ctx(0), m.Ctx(1)
	pg, _ := m.Phys.Alloc()
	b1, _ := sf.Alloc(ctx0, pg, Private)
	b2, _ := sf.Alloc(ctx1, pg, NoWait)
	if b1 != b2 {
		t.Fatal("an sf_buf is the vm_page: all callers share it")
	}
	sf.Free(ctx0, b1)
	sf.Free(ctx1, b2)
}

func TestAMD64NeverInvalidates(t *testing.T) {
	m, pm, sf := newAMD64Rig(t)
	ctx := m.Ctx(0)
	for i := 0; i < 100; i++ {
		pg, err := m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sf.Alloc(ctx, pg, 0)
		if _, err := pm.Translate(ctx, b.KVA(), true); err != nil {
			t.Fatal(err)
		}
		sf.Free(ctx, b)
	}
	if m.Counters().LocalInv.Load() != 0 || m.Counters().RemoteInvIssued.Load() != 0 {
		t.Fatal("amd64 implementation must never produce TLB invalidations")
	}
	s := sf.Stats()
	if s.Allocs != 100 || s.Frees != 100 || s.Hits != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAMD64FreeIsCheap(t *testing.T) {
	m, _, sf := newAMD64Rig(t)
	ctx := m.Ctx(0)
	pg, _ := m.Phys.Alloc()
	b, _ := sf.Alloc(ctx, pg, 0)
	before := m.CPU(0).Cycles()
	sf.Free(ctx, b)
	if cost := m.CPU(0).Cycles() - before; cost != 0 {
		t.Fatalf("sf_buf_free must be the empty function, cost %d", cost)
	}
}

// --- original ---

func newOriginalRig(t *testing.T, p arch.Platform) (*smp.Machine, *pmap.Pmap, *Original) {
	t.Helper()
	m := smp.NewMachine(p, 128, true)
	pm := pmap.New(m)
	var arena *kva.Arena
	if p.Arch == arch.I386 {
		arena = kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	} else {
		arena = kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
	}
	return m, pm, NewOriginal(m, pm, arena)
}

func TestOriginalAllocMapsAndFrees(t *testing.T) {
	m, pm, o := newOriginalRig(t, arch.XeonMP())
	ctx := m.Ctx(0)
	pg, _ := m.Phys.Alloc()
	pg.Data()[0] = 0x7E
	b, err := o.Alloc(ctx, pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pm.Translate(ctx, b.KVA(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data()[0] != 0x7E {
		t.Fatal("mapping wrong")
	}
	o.Free(ctx, b)
	if pm.Mappings() != 0 {
		t.Fatal("free must unmap")
	}
}

func TestOriginalGlobalInvalidationPerFree(t *testing.T) {
	m, pm, o := newOriginalRig(t, arch.XeonMPHTT())
	ctx := m.Ctx(0)
	const n = 25
	for i := 0; i < n; i++ {
		pg, _ := m.Phys.Alloc()
		b, _ := o.Alloc(ctx, pg, 0)
		pm.Translate(ctx, b.KVA(), false)
		o.Free(ctx, b)
	}
	if got := m.Counters().LocalInv.Load(); got != n {
		t.Fatalf("local invalidations = %d, want %d", got, n)
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != n {
		t.Fatalf("remote invalidations = %d, want %d", got, n)
	}
	if got := o.Stats().VAAllocs; got != n {
		t.Fatalf("VA allocations = %d, want %d", got, n)
	}
}

func TestOriginalOnUPHasNoRemote(t *testing.T) {
	m, _, o := newOriginalRig(t, arch.XeonUP())
	ctx := m.Ctx(0)
	for i := 0; i < 10; i++ {
		pg, _ := m.Phys.Alloc()
		b, _ := o.Alloc(ctx, pg, 0)
		o.Free(ctx, b)
	}
	if m.Counters().RemoteInvIssued.Load() != 0 {
		t.Fatal("UP original kernel must not shoot down")
	}
	if m.Counters().LocalInv.Load() != 10 {
		t.Fatal("UP original kernel still invalidates locally")
	}
}

// TestOriginalNoStaleLeaks: the original kernel's global invalidation on
// free is precisely what keeps VA recycling safe.  Exercise recycling
// across CPUs with data checks through the honest MMU.
func TestOriginalNoStaleLeaks(t *testing.T) {
	m, pm, o := newOriginalRig(t, arch.XeonMP())
	ctx0, ctx1 := m.Ctx(0), m.Ctx(1)
	for i := 0; i < 50; i++ {
		pg, err := m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i)
		b, _ := o.Alloc(ctx0, pg, 0)
		// Both CPUs read through the mapping (it is shared).
		g0, _ := pm.Translate(ctx0, b.KVA(), false)
		g1, _ := pm.Translate(ctx1, b.KVA(), false)
		if g0 == nil || g1 == nil || g0.Data()[0] != byte(i) || g1.Data()[0] != byte(i) {
			t.Fatalf("iteration %d read stale data", i)
		}
		o.Free(ctx0, b)
		m.Phys.Free(pg)
	}
}

func TestOriginalNoWaitOnExhaustedArena(t *testing.T) {
	m := smp.NewMachine(arch.XeonMP(), 16, false)
	pm := pmap.New(m)
	arena := kva.NewArena(pmap.KVABaseI386, vm.PageSize) // one page only
	o := NewOriginal(m, pm, arena)
	ctx := m.Ctx(0)
	pg, _ := m.Phys.Alloc()
	b, err := o.Alloc(ctx, pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Alloc(ctx, pg, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	o.Free(ctx, b)
}

// TestOriginalDoubleFreePanicsFirst: freeing an already-freed handle
// panics before anything is charged, unmapped, invalidated or returned to
// the arena, and before the handle reaches the recycling LIFO a second
// time — through Free, FreeBatch on both pmaps, and FreeRun.
func TestOriginalDoubleFreePanicsFirst(t *testing.T) {
	mustPanicUntouched := func(t *testing.T, m *smp.Machine, pm *pmap.Pmap, o *Original, free func()) {
		t.Helper()
		cyc, counters, stats, maps, spare := m.TotalCycles(), m.SnapshotCounters(), o.Stats(), pm.Mappings(), len(o.spare)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("double free did not panic")
				}
			}()
			free()
		}()
		if got := m.TotalCycles(); got != cyc {
			t.Errorf("double free charged %d cycles", got-cyc)
		}
		if got := m.SnapshotCounters(); got != counters {
			t.Errorf("double free moved machine counters: %+v -> %+v", counters, got)
		}
		if got := o.Stats(); got != stats {
			t.Errorf("double free moved stats: %+v -> %+v", stats, got)
		}
		if got := pm.Mappings(); got != maps {
			t.Errorf("double free changed the mapping count %d -> %d", maps, got)
		}
		if got := len(o.spare); got != spare {
			t.Errorf("double free changed the handle LIFO %d -> %d", spare, got)
		}
	}
	pages := func(m *smp.Machine, n int) []*vm.Page {
		pgs, err := m.Phys.AllocN(n)
		if err != nil {
			t.Fatal(err)
		}
		return pgs
	}

	t.Run("Free", func(t *testing.T) {
		m, pm, o := newOriginalRig(t, arch.XeonMPHTT())
		ctx := m.Ctx(0)
		alloc := func() *Buf {
			b, err := o.Alloc(ctx, pages(m, 1)[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, c := alloc(), alloc()
		o.Free(ctx, c)
		o.Free(ctx, a)
		// live takes a's handle back; c stays released, its address free
		// for reuse.
		live := alloc()
		mustPanicUntouched(t, m, pm, o, func() { o.Free(ctx, c) })
		if _, err := pm.Translate(ctx, live.KVA(), false); err != nil {
			t.Fatalf("live mapping torn down: %v", err)
		}
		// c is on the LIFO once: the next two allocations get distinct
		// handles.
		if x, y := alloc(), alloc(); x == y {
			t.Fatal("one handle issued twice")
		}
	})
	for _, plat := range []arch.Platform{arch.XeonMPHTT(), arch.OpteronMP()} {
		t.Run("FreeBatch/"+plat.Name, func(t *testing.T) {
			m, pm, o := newOriginalRig(t, plat)
			ctx := m.Ctx(0)
			bufs, err := o.AllocBatch(ctx, pages(m, 4), 0)
			if err != nil {
				t.Fatal(err)
			}
			o.FreeBatch(ctx, bufs)
			mustPanicUntouched(t, m, pm, o, func() { o.FreeBatch(ctx, bufs) })
		})
	}
	t.Run("FreeRun", func(t *testing.T) {
		m, pm, o := newOriginalRig(t, arch.OpteronMP())
		ctx := m.Ctx(0)
		r, err := o.AllocRun(ctx, pages(m, 4), 0)
		if err != nil {
			t.Fatal(err)
		}
		o.FreeRun(ctx, r)
		mustPanicUntouched(t, m, pm, o, func() { o.FreeRun(ctx, r) })
	})
}

// --- cross-implementation properties ---

// Property: for every implementation, alloc/translate/free round-trips
// resolve to the allocated page regardless of flags.
func TestQuickMapperRoundTrip(t *testing.T) {
	type rig struct {
		name string
		m    *smp.Machine
		pm   *pmap.Pmap
		sf   Mapper
	}
	var rigs []rig
	{
		m := smp.NewMachine(arch.XeonMP(), 256, true)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		sf, err := NewI386(m, pm, arena, 16)
		if err != nil {
			t.Fatal(err)
		}
		rigs = append(rigs, rig{"i386", m, pm, sf})
	}
	{
		m := smp.NewMachine(arch.OpteronMP(), 256, true)
		pm := pmap.New(m)
		rigs = append(rigs, rig{"amd64", m, pm, NewAMD64(m, pm)})
	}
	{
		m := smp.NewMachine(arch.XeonMP(), 256, true)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		rigs = append(rigs, rig{"original", m, pm, NewOriginal(m, pm, arena)})
	}
	for _, r := range rigs {
		pages, err := r.m.Phys.AllocN(32)
		if err != nil {
			t.Fatal(err)
		}
		f := func(pageIdx uint8, cpu uint8, private, touch bool) bool {
			pg := pages[int(pageIdx)%len(pages)]
			ctx := r.m.Ctx(int(cpu) % r.m.NumCPUs())
			var flags Flags
			if private {
				flags |= Private
			}
			b, err := r.sf.Alloc(ctx, pg, flags)
			if err != nil {
				return false
			}
			ok := b.Page() == pg
			if touch {
				g, err := r.pm.Translate(ctx, b.KVA(), false)
				ok = ok && err == nil && g == pg
			}
			r.sf.Free(ctx, b)
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}
}
