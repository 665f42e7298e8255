package pmap

// The reference page table and the differential harness over it: the
// radix page table must be indistinguishable from the map of heap PTEs it
// replaced, through every Pmap entry point, under any op stream.

import (
	"math/rand"
	"slices"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/smp"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// refPT is the page table as it was before the radix rebuild — one heap
// PTE per vpn in a Go map, promoted windows in a second map — with the
// Pmap operations written over it exactly as they were.  It walks for its
// own machine through the same smp.PageTable step Pmap uses.
type refPT struct {
	m     *smp.Machine
	pt    map[uint64]*PTE
	super map[uint64]*refWindow
}

type refWindow struct {
	baseVPN, frame uint64
	accessed       bool
}

func newRefPT(m *smp.Machine) *refPT {
	return &refPT{m: m, pt: map[uint64]*PTE{}, super: map[uint64]*refWindow{}}
}

func (p *refPT) KEnter(ctx *smp.Context, va uint64, pg *vm.Page) (oldValid, oldAccessed bool) {
	vpn := VPN(va)
	pte, ok := p.pt[vpn]
	if ok {
		oldValid, oldAccessed = pte.Valid, pte.Accessed
	} else {
		pte = &PTE{}
		p.pt[vpn] = pte
	}
	*pte = PTE{Frame: pg.Frame(), Valid: true}
	ctx.TouchPTESpan(vpn, 1)
	ctx.Charge(ctx.Cost().PTEWrite)
	return oldValid, oldAccessed
}

func (p *refPT) clear(vpn uint64) (accessed bool) {
	if pte, ok := p.pt[vpn]; ok {
		accessed = pte.Valid && pte.Accessed
		*pte = PTE{}
	}
	return accessed
}

func (p *refPT) KRemove(ctx *smp.Context, va uint64) {
	p.clear(VPN(va))
	ctx.TouchPTESpan(VPN(va), 1)
	ctx.Charge(ctx.Cost().PTEWrite)
}

func (p *refPT) KRemoveBatch(ctx *smp.Context, vpns []uint64, accessed []bool) []bool {
	for _, vpn := range vpns {
		accessed = append(accessed, p.clear(vpn))
	}
	ctx.TouchPTERange(vpns)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(len(vpns)))
	return accessed
}

func (p *refPT) KEnterRun(ctx *smp.Context, base uint64, pages []*vm.Page) (promotions int) {
	vpn0, n := VPN(base), len(pages)
	for i, pg := range pages {
		vpn := vpn0 + uint64(i)
		pte, ok := p.pt[vpn]
		if !ok {
			pte = &PTE{}
			p.pt[vpn] = pte
		}
		*pte = PTE{Frame: pg.Frame(), Valid: true}
	}
	const span = uint64(SuperpagePages)
	for c := (vpn0 + span - 1) &^ (span - 1); c+span <= vpn0+uint64(n); c += span {
		idx := int(c - vpn0)
		contig := true
		for j := 1; j < SuperpagePages; j++ {
			if pages[idx+j].Frame() != pages[idx].Frame()+uint64(j) {
				contig = false
				break
			}
		}
		if contig && pages[idx].Frame()%span == 0 {
			p.super[c>>tlb.SuperSpanShift] = &refWindow{baseVPN: c, frame: pages[idx].Frame()}
			promotions++
		}
	}
	ctx.TouchPTESpan(vpn0, n)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(n))
	return promotions
}

func (p *refPT) KRemoveRun(ctx *smp.Context, base uint64, n int, accessed []bool) []bool {
	vpn0 := VPN(base)
	start := len(accessed)
	for i := 0; i < n; i++ {
		accessed = append(accessed, p.clear(vpn0+uint64(i)))
	}
	const span = uint64(SuperpagePages)
	for c := (vpn0 + span - 1) &^ (span - 1); c+span <= vpn0+uint64(n); c += span {
		w, ok := p.super[c>>tlb.SuperSpanShift]
		if !ok {
			continue
		}
		if w.accessed {
			for j := 0; j < SuperpagePages; j++ {
				accessed[start+int(c-vpn0)+j] = true
			}
		}
		delete(p.super, c>>tlb.SuperSpanShift)
	}
	ctx.TouchPTESpan(vpn0, n)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(n))
	return accessed
}

func (p *refPT) Promoted(va uint64) bool {
	_, ok := p.super[VPN(va)>>tlb.SuperSpanShift]
	return ok
}

func (p *refPT) Probe(va uint64) (PTE, bool) {
	pte, ok := p.pt[VPN(va)]
	if !ok {
		return PTE{}, false
	}
	return *pte, true
}

func (p *refPT) Mappings() int {
	n := 0
	for _, pte := range p.pt {
		if pte.Valid {
			n++
		}
	}
	return n
}

func (p *refPT) Translate(ctx *smp.Context, va uint64, write bool) (*vm.Page, bool) {
	return ctx.Translate(p, VPN(va), write)
}

func (p *refPT) TranslateRun(ctx *smp.Context, va uint64, n int, write bool, out []*vm.Page) ([]*vm.Page, int) {
	return ctx.TranslateRun(p, VPN(va), n, write, out)
}

func (p *refPT) Walk(t *tlb.TLB, vpn uint64, write bool) (uint64, bool) {
	pte, ok := p.pt[vpn]
	if !ok || !pte.Valid {
		return 0, false
	}
	pte.Accessed = true
	pte.Modified = pte.Modified || write
	if w, ok := p.super[vpn>>tlb.SuperSpanShift]; ok {
		w.accessed = true
		t.InsertLarge(w.baseVPN, w.frame)
	} else {
		t.Insert(vpn, pte.Frame)
	}
	return pte.Frame, true
}

func (p *refPT) WalkRun(t *tlb.TLB, vpn0 uint64, n int, write bool, out []*vm.Page) ([]*vm.Page, int) {
	first := len(out)
	for j := 0; j < n; j++ {
		pte, ok := p.pt[vpn0+uint64(j)]
		if !ok || !pte.Valid {
			return out, j
		}
		pte.Accessed = true
		pte.Modified = pte.Modified || write
		out = append(out, p.m.Phys.PageByFrame(pte.Frame))
	}
	var larges []*refWindow
	for key := vpn0 >> tlb.SuperSpanShift; key<<tlb.SuperSpanShift < vpn0+uint64(n); key++ {
		if w, ok := p.super[key]; ok {
			w.accessed = true
			larges = append(larges, w)
		}
	}
	const span = uint64(SuperpagePages)
fill:
	for j := 0; j < n; {
		vpn := vpn0 + uint64(j)
		for _, w := range larges {
			if vpn >= w.baseVPN && vpn < w.baseVPN+span {
				t.InsertLarge(w.baseVPN, w.frame)
				j += int(w.baseVPN + span - vpn)
				continue fill
			}
		}
		t.Insert(vpn, out[first+j].Frame())
		j++
	}
	return out, -1
}

// runPTProgram decodes prog as an op stream (opcode, a, b bytes) and
// applies it to a Pmap and a refPT, each on its own identical 4-vCPU
// machine, requiring after every step equal return values, Probe results,
// Mappings and promotion state, and equal per-CPU cycles, machine counters
// and TLB statistics.  Addresses straddle page-table-page boundaries under
// both the i386 and the amd64 kernel VA bases; runs install an aligned
// contiguous chunk (which promotes) or scattered frames (which do not).
func runPTProgram(t testing.TB, prog []byte) {
	t.Helper()
	const lead, windows = 3, 3
	type side struct {
		m      *smp.Machine
		single []*vm.Page
		chunk  []*vm.Page
	}
	boot := func() side {
		m := smp.NewMachine(arch.XeonMPHTT(), 2*SuperpagePages+64, false)
		all, err := m.Phys.AllocN(2*SuperpagePages + 64)
		if err != nil {
			t.Fatal(err)
		}
		s := side{m: m, chunk: all[SuperpagePages-1 : 2*SuperpagePages-1]}
		s.single = append(append(s.single, all[:SuperpagePages-1]...), all[2*SuperpagePages-1:]...)
		return s
	}
	gs, ws := boot(), boot()
	got, want := New(gs.m), newRefPT(ws.m)
	bases := [2]uint64{KVABaseI386, KVABaseAMD64}
	// Single-page addresses: three page-table pages' worth under either
	// base, dense enough that neighbours share PTE lines and leaves.
	va := func(a, b byte) uint64 {
		return bases[a&1] + uint64(int(a>>1)%3*SuperpagePages+int(b)*3%600)*vm.PageSize
	}
	// Run windows: unaligned by lead pages, two page-table pages apart.
	runBase := func(a byte) uint64 {
		return bases[a&1] + uint64(8*SuperpagePages+int(a>>1)%windows*2*SuperpagePages-lead)*vm.PageSize
	}
	runPages := func(s side, b byte) []*vm.Page {
		if b&1 == 0 { // scattered
			pages := make([]*vm.Page, 1+int(b)%48)
			for i := range pages {
				pages[i] = s.single[(int(b)*7+i*13)%len(s.single)]
			}
			return pages
		}
		pages := append([]*vm.Page(nil), s.single[:lead]...)
		pages = append(pages, s.chunk...)
		return append(pages, s.single[lead:lead+int(b)%5]...)
	}
	frames := func(pages []*vm.Page) []uint64 {
		out := make([]uint64, len(pages))
		for i, pg := range pages {
			out[i] = pg.Frame()
		}
		return out
	}
	promos := 0
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, a, b := prog[pc]%16, prog[pc+1], prog[pc+2]
		cpu := int(b>>4) % gs.m.NumCPUs()
		gctx, wctx := gs.m.Ctx(cpu), ws.m.Ctx(cpu)
		switch op {
		case 0, 1, 2:
			i := (int(a)*31 + int(b)) % len(gs.single)
			gv, ga := got.KEnter(gctx, va(a, b), gs.single[i])
			wv, wa := want.KEnter(wctx, va(a, b), ws.single[i])
			if gv != wv || ga != wa {
				t.Fatalf("pc %d: KEnter(%#x) = %v,%v, want %v,%v", pc, va(a, b), gv, ga, wv, wa)
			}
		case 3:
			got.KRemove(gctx, va(a, b))
			want.KRemove(wctx, va(a, b))
		case 4:
			vpns := make([]uint64, 1+int(b)%8)
			for i := range vpns {
				vpns[i] = VPN(va(a, b+byte(i*5)))
			}
			g, w := got.KRemoveBatch(gctx, vpns, nil), want.KRemoveBatch(wctx, vpns, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("pc %d: KRemoveBatch(%#x) = %v, want %v", pc, vpns, g, w)
			}
			gctx.InvalidateLocalRange(vpns)
			wctx.InvalidateLocalRange(vpns)
		case 5:
			got.KEnterRun(gctx, runBase(a), runPages(gs, b))
			promos += want.KEnterRun(wctx, runBase(a), runPages(ws, b))
			if g := int(got.SuperStats().Promotions); g != promos {
				t.Fatalf("pc %d: %d promotions, want %d", pc, g, promos)
			}
		case 6:
			n := len(runPages(gs, b))
			g, w := got.KRemoveRun(gctx, runBase(a), n, nil), want.KRemoveRun(wctx, runBase(a), n, nil)
			if !slices.Equal(g, w) {
				t.Fatalf("pc %d: KRemoveRun(%#x, %d) = %v, want %v", pc, runBase(a), n, g, w)
			}
			gs.m.Ctx(0).ShootdownRange(gs.m.AllCPUs(), []uint64{VPN(runBase(a)) + lead})
			ws.m.Ctx(0).ShootdownRange(ws.m.AllCPUs(), []uint64{VPN(runBase(a)) + lead})
		case 7, 8, 9, 10:
			addr := va(a, b)
			if op == 10 {
				addr = runBase(a) + uint64(b)*2*vm.PageSize
			}
			gp, gerr := got.Translate(gctx, addr, b&1 == 1)
			wp, wok := want.Translate(wctx, addr, b&1 == 1)
			if (gerr == nil) != wok || (wok && gp.Frame() != wp.Frame()) {
				t.Fatalf("pc %d: Translate(%#x) = %v,%v, want %v,%v", pc, addr, gp, gerr, wp, wok)
			}
		case 11, 12:
			addr, n := runBase(a)+uint64(b)*2*vm.PageSize, 1+int(b)%40
			if op == 12 {
				addr = va(a, b)
			}
			gp, gerr := got.TranslateRun(gctx, addr, n, b&2 == 2, nil)
			wp, bad := want.TranslateRun(wctx, addr, n, b&2 == 2, nil)
			if (gerr == nil) != (bad < 0) || (bad < 0 && !slices.Equal(frames(gp), frames(wp))) {
				t.Fatalf("pc %d: TranslateRun(%#x, %d) = %v,%v, want %v, fault at %d", pc, addr, n, frames(gp), gerr, frames(wp), bad)
			}
		case 13:
			gctx.InvalidateLocal(VPN(va(a, b)))
			wctx.InvalidateLocal(VPN(va(a, b)))
		case 14:
			if b%8 == 0 {
				gctx.FlushLocalTLB()
				wctx.FlushLocalTLB()
			}
		}
		for _, addr := range []uint64{va(a, b), va(a, b+1), runBase(a), runBase(a) + lead*vm.PageSize} {
			gp, gok := got.Probe(addr)
			wp, wok := want.Probe(addr)
			if gp != wp || gok != wok || got.Promoted(addr) != want.Promoted(addr) {
				t.Fatalf("pc %d (op %d): Probe(%#x) = %+v,%v promoted %v, want %+v,%v promoted %v",
					pc, op, addr, gp, gok, got.Promoted(addr), wp, wok, want.Promoted(addr))
			}
		}
		// (The reference counts its mappings by walking its whole map.)
		if (pc%48 == 0 && got.Mappings() != want.Mappings()) || gs.m.SnapshotCounters() != ws.m.SnapshotCounters() {
			t.Fatalf("pc %d (op %d): %d mappings, counters %+v\nwant %d mappings, counters %+v",
				pc, op, got.Mappings(), gs.m.SnapshotCounters(), want.Mappings(), ws.m.SnapshotCounters())
		}
		for c := 0; c < gs.m.NumCPUs(); c++ {
			g, w := gs.m.CPU(c), ws.m.CPU(c)
			if g.Cycles() != w.Cycles() || g.TLBStats() != w.TLBStats() {
				t.Fatalf("pc %d (op %d): cpu %d at %d cycles, tlb %+v\nwant %d cycles, tlb %+v",
					pc, op, c, g.Cycles(), g.TLBStats(), w.Cycles(), w.TLBStats())
			}
		}
	}
	if got.Mappings() != want.Mappings() {
		t.Fatalf("%d mappings at the end, want %d", got.Mappings(), want.Mappings())
	}
}

func TestPageTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		prog := make([]byte, 3*4000)
		rand.New(rand.NewSource(seed)).Read(prog)
		runPTProgram(t, prog)
	}
}

func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 2, 9, 7, 2, 9, 3, 2, 9, 7, 2, 9, 12, 2, 8})
	f.Add([]byte{5, 0, 1, 10, 0, 9, 11, 0, 1, 6, 0, 1, 11, 0, 1, 5, 1, 2, 12, 1, 0})
	f.Add([]byte{5, 3, 7, 5, 2, 7, 11, 3, 0, 14, 0, 0, 10, 3, 200, 6, 3, 7, 4, 3, 3})
	f.Fuzz(func(t *testing.T, prog []byte) { runPTProgram(t, prog) })
}
