package pmap

import (
	"fmt"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// goldenMMU is the digest TestGoldenMMU pins.  The values were captured by
// running this file on b15fc70, the commit BEFORE the modeled MMU was
// rebuilt on flat tables (Go-map TLB, linked-list LRUs, map[uint64]*PTE
// page table, three CPU-lock round trips per TLB miss), and are checked
// in, not regenerated: they are what proves the rebuild moved no charge,
// no counter and no LRU victim.
var goldenMMU = mmuDigest{
	Hash:        5501877647028988487,
	TotalCycles: 53028150,
	PTWalks:     11615,
	LocalInv:    31377,
	IPIs:        1941,
	Lookups:     37971,
	Hits:        26356,
	Inserts:     14347,
	Evictions:   7023,
	LargeHits:   19111,
	Faults:      4663,
	Promotions:  390,
}

type mmuDigest struct {
	Hash                    uint64
	TotalCycles             int64
	PTWalks, LocalInv, IPIs uint64
	Lookups, Hits, Inserts  uint64
	Evictions, LargeHits    uint64
	Faults                  int
	Promotions              uint64
}

// TestGoldenMMU drives a seeded 20k-op script through every page-table and
// translation entry point on the 4-vCPU Xeon-MP-HTT and digests everything
// the model reports: each returned frame and accessed bit, every fault,
// per-CPU cycles, the machine counters and every CPU's TLB statistics.
func TestGoldenMMU(t *testing.T) {
	got, detail := runGoldenMMU(t)
	if got != goldenMMU {
		t.Fatalf("modeled MMU diverged from the parent commit's golden\n got: %+v\nwant: %+v\n%s",
			got, goldenMMU, detail)
	}
}

// runGoldenMMU returns the digest and, for the failure message, the
// per-CPU cycles, counters and TLB statistics folded into its hash.
func runGoldenMMU(t *testing.T) (mmuDigest, string) {
	t.Helper()
	const (
		nSlots   = 3000 // single-page mappings, 17 pages apart: 100 leaves, 6375 PTE lines
		stride   = 17
		runLead  = 3 // pages of run A before its aligned 512-page chunk
		runTail  = 5
		denseLen = 64
		nWin     = 10 // VA windows run A installs into: more than tlb.LargeCap
		ops      = 20000
	)
	m := smp.NewMachine(arch.XeonMPHTT(), 2*SuperpagePages+512, false)
	pm := New(m)
	ncpu := m.NumCPUs()
	ctxs := make([]*smp.Context, ncpu)
	for i := range ctxs {
		ctxs[i] = m.Ctx(i)
	}
	// The LIFO pool hands out frames 1, 2, 3, ...: frames 512..1023 are the
	// aligned contiguous chunk, everything else is the single-page stock.
	first, err := m.Phys.AllocN(2 * SuperpagePages)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := m.Phys.AllocN(512)
	if err != nil {
		t.Fatal(err)
	}
	chunk := first[SuperpagePages-1 : 2*SuperpagePages-1]
	if chunk[0].Frame()%uint64(SuperpagePages) != 0 {
		t.Fatalf("chunk starts at frame %d", chunk[0].Frame())
	}
	singles := append(append([]*vm.Page(nil), first[:SuperpagePages-1]...), first[2*SuperpagePages-1:]...)
	singles = append(singles, rest...)

	slotBase := uint64(KVABaseI386)
	slotVA := func(i int) uint64 { return slotBase + uint64(i*stride)*vm.PageSize }
	// Run A: an aligned window preceded and followed by stray pages, so the
	// run crosses leaf boundaries and only its middle promotes.
	// It installs at any of nWin addresses (all mapping the one physical
	// chunk), so the large-entry array overflows.
	const superBytes = uint64(SuperpagePages) * vm.PageSize
	runA0 := (slotBase+uint64(nSlots*stride)*vm.PageSize+2*superBytes-1)&^(superBytes-1) - runLead*vm.PageSize
	runABase := func(w int) uint64 { return runA0 + uint64(w)*2*superBytes }
	runALen := runLead + SuperpagePages + runTail
	// Run B: a dense window of scattered frames — base-entry fills only.
	runBBase := runABase(nWin)

	var (
		h      = uint64(14695981039346656037)
		seed   = uint64(0x5eed_17)
		faults int
	)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	rnd := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	rn := func(n int) int { return int(rnd() % uint64(n)) }
	mixPage := func(pg *vm.Page, err error) {
		if err != nil {
			faults++
			mix(0xFA17)
			return
		}
		mix(pg.Frame())
	}
	mixBools := func(bs []bool) {
		for _, b := range bs {
			if b {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	teardown := func(ctx *smp.Context, vpns []uint64, accessed []bool) {
		owed := vpns[:0:0]
		for i, a := range accessed {
			if a {
				owed = append(owed, vpns[i])
			}
		}
		ctx.InvalidateLocalRange(owed)
		ctx.ShootdownRange(m.AllCPUs(), owed)
	}

	runAPages := func() []*vm.Page {
		pages := make([]*vm.Page, 0, runALen)
		for i := 0; i < runLead; i++ {
			pages = append(pages, singles[rn(len(singles))])
		}
		pages = append(pages, chunk...)
		for i := 0; i < runTail; i++ {
			pages = append(pages, singles[rn(len(singles))])
		}
		return pages
	}
	// Two slots in three start mapped; the rest fault until a KEnter lands.
	for i := 0; i < nSlots; i++ {
		if i%3 != 0 {
			pm.KEnter(ctxs[i%ncpu], slotVA(i), singles[rn(len(singles))])
		}
	}
	for w := 0; w < nWin; w++ {
		pm.KEnterRun(ctxs[w%ncpu], runABase(w), runAPages())
	}
	var out []*vm.Page
	var accessed []bool
	for op := 0; op < ops; op++ {
		ctx := ctxs[rn(ncpu)]
		switch k := rn(100); {
		case k < 22: // KEnter over a fresh, live or removed slot
			ov, oa := pm.KEnter(ctx, slotVA(rn(nSlots)), singles[rn(len(singles))])
			mixBools([]bool{ov, oa})
		case k < 62: // Translate, a third of them writes; unmapped slots fault
			mixPage(pm.Translate(ctx, slotVA(rn(nSlots)), rn(3) == 0))
		case k < 70: // hot set: the same 48 slots, so the TLB also hits
			mixPage(pm.Translate(ctx, slotVA(rn(48)), false))
		case k < 76: // batched teardown with its invalidations
			n := 1 + rn(4)
			vpns := make([]uint64, n)
			for i := range vpns {
				vpns[i] = VPN(slotVA(rn(nSlots)))
			}
			accessed = pm.KRemoveBatch(ctx, vpns, accessed[:0])
			mixBools(accessed)
			teardown(ctx, vpns, accessed)
		case k < 78: // (re)install run A: the aligned chunk promotes
			pm.KEnterRun(ctx, runABase(rn(nWin)), runAPages())
		case k < 80: // (re)install run B over scattered frames
			pages := make([]*vm.Page, denseLen)
			for i := range pages {
				pages[i] = singles[rn(len(singles))]
			}
			pm.KEnterRun(ctx, runBBase, pages)
		case k < 88: // ranged translate inside run A (faults while it is torn down)
			off, n := rn(runALen-40), 1+rn(40)
			var err error
			out, err = pm.TranslateRun(ctx, runABase(rn(nWin))+uint64(off)*vm.PageSize, n, rn(4) == 0, out[:0])
			if err != nil {
				mixPage(nil, err)
				break
			}
			for _, pg := range out {
				mix(pg.Frame())
			}
		case k < 93: // ranged translate inside run B
			off, n := rn(denseLen-32), 1+rn(32)
			var err error
			out, err = pm.TranslateRun(ctx, runBBase+uint64(off)*vm.PageSize, n, false, out[:0])
			if err != nil {
				mixPage(nil, err)
				break
			}
			for _, pg := range out {
				mix(pg.Frame())
			}
		case k < 95: // single translate into run A: a large-entry fill or hit
			mixPage(pm.Translate(ctx, runABase(rn(nWin))+uint64(rn(runALen))*vm.PageSize, false))
		case k < 96: // tear run A or B down, demoting, and shoot it down
			base, n := runABase(rn(nWin)), runALen
			if rn(4) == 0 {
				base, n = runBBase, denseLen
			}
			accessed = pm.KRemoveRun(ctx, base, n, accessed[:0])
			mixBools(accessed)
			vpns := make([]uint64, n)
			for i := range vpns {
				vpns[i] = VPN(base) + uint64(i)
			}
			teardown(ctx, vpns, accessed)
		case k < 99: // a translate that must fault: never-entered address
			mixPage(pm.Translate(ctx, slotVA(rn(nSlots))+vm.PageSize, false))
		default:
			if rn(4) == 0 {
				ctx.FlushLocalTLB()
			}
		}
	}

	d := mmuDigest{Faults: faults, Promotions: pm.SuperStats().Promotions}
	var perCPU, tlbStats string
	for cpu := 0; cpu < ncpu; cpu++ {
		cy := int64(m.CPU(cpu).Cycles())
		ts := m.CPU(cpu).TLBStats()
		d.TotalCycles += cy
		d.Lookups += ts.Lookups
		d.Hits += ts.Hits
		d.Inserts += ts.Inserts
		d.Evictions += ts.Evictions
		d.LargeHits += ts.LargeHits
		perCPU += fmt.Sprintf("%d ", cy)
		tlbStats += fmt.Sprintf("%+v ", ts)
	}
	snap := m.SnapshotCounters()
	d.PTWalks, d.LocalInv, d.IPIs = snap.PTWalks, snap.LocalInv, snap.IPIsDelivered
	// The counters are rendered field by field in the names and order
	// smp.Snapshot had when the golden was captured, so the hash covers
	// the same bytes whatever fields the struct gains or loses.  The idle,
	// daemon and slow-memory-tier counters this script never moved are
	// rendered as the zeros they were.
	counters := fmt.Sprintf("{LocalInv:%d RemoteInvIssued:%d IPIsDelivered:%d FullFlushes:%d "+
		"HandlerCycles:%d BatchedFlushes:%d BatchedInv:%d LockAcq:%d PTWalks:%d "+
		"IdleCycles:0 DaemonCycles:0 RemoteLockAcq:%d RemoteIPIs:%d RemoteMemCycles:%d SlowMemCycles:0}",
		snap.LocalInv, snap.RemoteInvIssued, snap.IPIsDelivered, snap.FullFlushes,
		snap.HandlerCycles, snap.BatchedFlushes, snap.BatchedInv, snap.LockAcq, snap.PTWalks,
		snap.RemoteLockAcq, snap.RemoteIPIs, snap.RemoteMemCycles)
	detail := fmt.Sprintf("cycles %s\ncounters %s\ntlb %s\nmappings %d", perCPU, counters, tlbStats, pm.Mappings())
	for i := 0; i < len(detail); i++ {
		mix(uint64(detail[i]))
	}
	d.Hash = h
	return d, detail
}
