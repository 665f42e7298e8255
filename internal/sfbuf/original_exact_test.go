package sfbuf

import (
	"fmt"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
)

// refOriginalFreeBatch is the 64-bit Original.FreeBatch before its
// teardown became one page-table pass and one ranged local invalidation:
// a KRemove and an InvalidateLocal per page, then the ranged remote
// round.  It is the reference the batched path must match exactly.
func refOriginalFreeBatch(o *Original, ctx *smp.Context, bufs []*Buf) {
	ctx.ChargeLock()
	vpns := make([]uint64, len(bufs))
	for i, b := range bufs {
		o.pm.KRemove(ctx, b.kva)
		ctx.InvalidateLocal(pmap.VPN(b.kva))
		vpns[i] = pmap.VPN(b.kva)
		b.page = nil
	}
	ctx.ShootdownRange(o.m.AllCPUs(), vpns)
	ctx.Charge(ctx.Cost().KVAFree)
	o.arena.Free(bufs[0].kva)
	o.mu.Lock()
	o.stats.Frees += uint64(len(bufs))
	o.stats.BatchFrees++
	o.spare = append(o.spare, bufs...)
	o.mu.Unlock()
}

// TestOriginalFreeBatchMatchesPerPage: on 64-bit pmaps, FreeBatch's one
// removal pass plus one ranged local invalidation charges, counts and
// leaves TLBs and PTE caches exactly as the per-page KRemove +
// InvalidateLocal sequence did — on Opteron-MP, and on PTE caches of one
// and two lines, where a batch spans more lines than the cache holds.
func TestOriginalFreeBatchMatchesPerPage(t *testing.T) {
	tiny := func(lines int) arch.Platform {
		p := arch.OpteronMP()
		p.Name = fmt.Sprintf("Opteron-MP/pte%d", lines)
		p.PTECacheLines = lines
		return p
	}
	for _, plat := range []arch.Platform{arch.OpteronMP(), tiny(2), tiny(1)} {
		for _, n := range []int{1, 7, 40} {
			t.Run(fmt.Sprintf("%s/%d", plat.Name, n), func(t *testing.T) {
				type side struct {
					m *smp.Machine
					o *Original
				}
				var sides [2]side
				var vpns [2][]uint64
				for i := range sides {
					m, _, o := newOriginalRig(t, plat)
					sides[i] = side{m, o}
					pgs, err := m.Phys.AllocN(n)
					if err != nil {
						t.Fatal(err)
					}
					// Two rounds, so the second frees into a PTE cache
					// and TLBs the first left behind.
					for round := 0; round < 2; round++ {
						bufs, err := o.AllocBatch(m.Ctx(0), pgs, 0)
						if err != nil {
							t.Fatal(err)
						}
						vpns[i] = vpns[i][:0]
						for j, b := range bufs {
							vpns[i] = append(vpns[i], pmap.VPN(b.KVA()))
							if _, err := o.pm.Translate(m.Ctx(j%m.NumCPUs()), b.KVA(), false); err != nil {
								t.Fatal(err)
							}
						}
						if i == 0 {
							o.FreeBatch(m.Ctx(0), bufs)
						} else {
							refOriginalFreeBatch(o, m.Ctx(0), bufs)
						}
					}
				}
				got, want := sides[0], sides[1]
				if g, w := got.m.SnapshotCounters(), want.m.SnapshotCounters(); g != w {
					t.Fatalf("counters:\n got  %+v\n want %+v", g, w)
				}
				if g, w := got.o.Stats(), want.o.Stats(); g != w {
					t.Fatalf("stats:\n got  %+v\n want %+v", g, w)
				}
				if g, w := got.o.pm.Mappings(), want.o.pm.Mappings(); g != w {
					t.Fatalf("mappings %d, per-page reference %d", g, w)
				}
				for id := 0; id < got.m.NumCPUs(); id++ {
					gc, wc := got.m.CPU(id), want.m.CPU(id)
					if g, w := gc.Cycles(), wc.Cycles(); g != w {
						t.Fatalf("cpu %d cycles %d, per-page reference %d", id, g, w)
					}
					if g, w := gc.TLBStats(), wc.TLBStats(); g != w {
						t.Fatalf("cpu %d TLB stats:\n got  %+v\n want %+v", id, g, w)
					}
					for _, vpn := range vpns[0] {
						if gc.TLBResident(vpn) || wc.TLBResident(vpn) {
							t.Fatalf("cpu %d still caches freed vpn %#x (batched %v, per-page %v)",
								id, vpn, gc.TLBResident(vpn), wc.TLBResident(vpn))
						}
					}
				}
				// A ranged invalidation pays per PTE-cache hit and miss,
				// so equal charges for it on every CPU show equal PTE
				// caches.
				for id := 0; id < got.m.NumCPUs(); id++ {
					got.m.Ctx(id).InvalidateLocalRange(vpns[0])
					want.m.Ctx(id).InvalidateLocalRange(vpns[1])
					if g, w := got.m.CPU(id).Cycles(), want.m.CPU(id).Cycles(); g != w {
						t.Fatalf("cpu %d PTE-cache probe: cycles %d, per-page reference %d", id, g, w)
					}
				}
			})
		}
	}
}

// TestOriginalFreeBatchAllocatesNothing: once the handle LIFO and the
// page-list scratch are warm, a 64-bit FreeBatch allocates nothing.
func TestOriginalFreeBatchAllocatesNothing(t *testing.T) {
	const runs, n = 50, 16
	m, _, o := newOriginalRig(t, arch.OpteronMP())
	ctx := m.Ctx(0)
	pgs, err := m.Phys.AllocN(n)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]*Buf, runs+1) // AllocsPerRun runs once more to warm up
	alloc := func() {
		for i := range batches {
			if batches[i], err = o.AllocBatch(ctx, pgs, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	alloc()
	for _, b := range batches {
		o.FreeBatch(ctx, b)
	}
	alloc()
	next := 0
	if avg := testing.AllocsPerRun(runs, func() {
		o.FreeBatch(ctx, batches[next])
		next++
	}); avg != 0 {
		t.Fatalf("a warmed 64-bit FreeBatch allocates %.1f times", avg)
	}
}
