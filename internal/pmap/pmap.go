// Package pmap is the machine-dependent physical-map layer, in the spirit
// of Mach's pmap interface that the paper cites as its model: it owns the
// kernel page tables and is the only module that manipulates translations.
//
// The crucial design decision for a faithful reproduction is that loads and
// stores through kernel virtual addresses are translated by Translate,
// which consults the executing CPU's TLB first and BELIEVES IT: if a
// mapping was changed without invalidating that TLB, Translate returns the
// old frame and the access reads or writes stale physical memory.  The
// sf_buf protocol (cpumask maintenance, the accessed-bit optimization,
// shootdowns) is therefore load-bearing in this simulator exactly as it is
// in a real kernel, and the test suite proves it by corrupting data when
// the protocol is weakened.
//
// The page table is a radix tree of fixed-size tables the walk indexes by
// slices of the virtual page number (pageTable below): a leaf is one
// page-table page of SuperpagePages entries, which is also the unit of
// superpage promotion.  A translation is one step of the executing CPU
// (smp.Context.Translate): TLB lookup, PTE-line touch, walk and TLB fill
// under a single hold of that CPU's lock, the walk taking the pmap lock
// inside it — lock order cpu.mu -> pmap.mu, so every call here into a
// Context is made after the pmap lock is released.
package pmap

import (
	"errors"
	"fmt"
	"sync"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/smp"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// Kernel virtual address layout.  The i386 split gives the kernel the top
// 1 GB of the 32-bit space (the conventional 3 GB/1 GB split the paper
// describes); amd64 has a permanent direct map of all physical memory plus
// a separate region for dynamically allocated kernel VA.
const (
	// KVABaseI386 is the bottom of the i386 kernel dynamic VA region.
	KVABaseI386 = 0xC400_0000
	// KVASizeI386 is the size of the i386 dynamic region: the kernel
	// space minus the kernel image, mdisk windows, and so on.
	KVASizeI386 = 0x3000_0000 // 768 MB of kernel virtual address space
	// DirectMapBase is the base of the amd64 direct map, which maps all
	// of physical memory with 2 MB superpages (Section 4.3).
	DirectMapBase = 0xFFFF_8000_0000_0000
	// KVABaseAMD64 is the base of the amd64 dynamic kernel VA region,
	// used by the original kernel's machine-independent mapping code.
	KVABaseAMD64 = 0xFFFF_C000_0000_0000
	// KVASizeAMD64 is the size of the amd64 dynamic region.
	KVASizeAMD64 = 0x1_0000_0000 // 4 GB
)

// PTE is a kernel page-table entry.  Accessed and Modified model the x86
// A/D bits: the hardware (Translate) sets them; the OS reads and clears
// them.  The accessed bit drives the paper's key optimization — a mapping
// whose PTE was never accessed cannot be cached by any TLB, so replacing it
// requires no invalidation at all.
type PTE struct {
	Frame    uint64
	Valid    bool
	Accessed bool
	Modified bool
}

// ErrFault is returned when a translation fails (invalid mapping).
var ErrFault = errors.New("pmap: page fault on kernel address")

// SuperpagePages is the simulated superpage span in base pages: the
// 2 MB-equivalent window a contiguous run must cover, aligned, for the
// promotion path to collapse it into one TLB entry.
const SuperpagePages = tlb.SuperSpan

// ptLeaf is one page-table page: the entries of an aligned
// SuperpagePages-page virtual window.  That is also the unit of superpage
// promotion, so the promoted-window state lives here: when promoted, the
// window's PTEs map physically contiguous frames from superFrame and a
// single large TLB entry (window base vpn, superFrame) covers all of it by
// arithmetic.  superAccessed records whether any CPU pulled that large
// translation into its TLB during the window's life — the superpage form
// of the accessed bit, deciding what the demoting teardown owes.
type ptLeaf struct {
	pte [SuperpagePages]PTE
	// entered has bit i set once pte[i] was ever installed, keeping
	// "never entered" apart from "entered, now invalid" (Probe's ok).
	entered       [SuperpagePages / 64]uint64
	promoted      bool
	superAccessed bool
	superFrame    uint64
}

// ptDir is one page-directory page: the leaves of SuperpagePages
// consecutive windows, key being their common vpn >> 2*SuperSpanShift.
type ptDir struct {
	key    uint64
	leaves [SuperpagePages]*ptLeaf
}

// pageTable is the kernel page table in the shape the hardware walks: a
// radix tree of fixed-size tables indexed by slices of the vpn.  The root
// is a short list — one directory per gigabyte of kernel VA in use — and
// the leaf of the last lookup is remembered, which is where the next one
// nearly always lands.
type pageTable struct {
	dirs    []*ptDir
	last    *ptLeaf
	lastKey uint64 // vpn >> SuperSpanShift of last
	valid   int    // entries currently valid
}

// leaf returns the leaf holding vpn's entry, growing the tree when create
// is set and returning nil for an absent leaf when it is not.
func (pt *pageTable) leaf(vpn uint64, create bool) *ptLeaf {
	key := vpn >> tlb.SuperSpanShift
	if pt.last != nil && pt.lastKey == key {
		return pt.last
	}
	var d *ptDir
	for _, x := range pt.dirs {
		if x.key == key>>tlb.SuperSpanShift {
			d = x
			break
		}
	}
	if d == nil {
		if !create {
			return nil
		}
		d = &ptDir{key: key >> tlb.SuperSpanShift}
		pt.dirs = append(pt.dirs, d)
	}
	l := d.leaves[key%SuperpagePages]
	if l == nil {
		if !create {
			return nil
		}
		l = new(ptLeaf)
		d.leaves[key%SuperpagePages] = l
	}
	pt.last, pt.lastKey = l, key
	return l
}

// enter installs vpn -> frame with clear accessed and modified bits and
// returns the entry as it was.
func (pt *pageTable) enter(vpn, frame uint64) (old PTE) {
	l := pt.leaf(vpn, true)
	i := vpn % SuperpagePages
	old = l.pte[i]
	l.pte[i] = PTE{Frame: frame, Valid: true}
	l.entered[i/64] |= 1 << (i % 64)
	if !old.Valid {
		pt.valid++
	}
	return old
}

// remove invalidates vpn's entry and returns it as it was.
func (pt *pageTable) remove(vpn uint64) (old PTE) {
	l := pt.leaf(vpn, false)
	if l == nil {
		return PTE{}
	}
	old = l.pte[vpn%SuperpagePages]
	l.pte[vpn%SuperpagePages] = PTE{}
	if old.Valid {
		pt.valid--
	}
	return old
}

// walk is the hardware walker's read of one entry: nil when it is
// invalid, else the entry with its accessed (and, for a write, modified)
// bit now set, and its leaf.
func (pt *pageTable) walk(vpn uint64, write bool) (*ptLeaf, *PTE) {
	l := pt.leaf(vpn, false)
	if l == nil || !l.pte[vpn%SuperpagePages].Valid {
		return nil, nil
	}
	pte := &l.pte[vpn%SuperpagePages]
	pte.Accessed = true
	if write {
		pte.Modified = true
	}
	return l, pte
}

// SuperStats counts simulated superpage events.
type SuperStats struct {
	// Promotions counts KEnterRun calls that collapsed an aligned,
	// physically contiguous 2 MB-equivalent window into a superpage.
	Promotions uint64
	// Demotions counts promoted windows torn back down by KRemoveRun.
	Demotions uint64
	// AlignSkips counts would-be promotions disqualified ONLY by physical
	// alignment: the window was fully covered by contiguous frames, but the
	// first frame was not a multiple of SuperpagePages, which real page-size
	// extension hardware refuses.  It measures the opportunistic promotion
	// the frame allocator's alignment discipline is (or is not) losing.
	AlignSkips uint64
}

// Pmap is the kernel address space of one machine.
type Pmap struct {
	m *smp.Machine

	mu    sync.Mutex
	pt    pageTable
	sstat SuperStats
}

// New creates the kernel pmap for machine m.
func New(m *smp.Machine) *Pmap {
	return &Pmap{m: m}
}

// VPN returns the virtual page number of a kernel VA.
func VPN(va uint64) uint64 { return va >> vm.PageShift }

// PageOffset returns the offset of va within its page.
func PageOffset(va uint64) int { return int(va & (vm.PageSize - 1)) }

// IsDirectMapped reports whether va falls in the amd64 direct map.
func (p *Pmap) IsDirectMapped(va uint64) bool {
	if p.m.Plat.Arch == arch.I386 {
		return false
	}
	return va >= DirectMapBase && va < KVABaseAMD64
}

// DirectVA returns the permanent direct-map virtual address of a physical
// page.  Only 64-bit architectures have a direct map; calling this on i386
// panics, mirroring the fact that no such address exists there.
func (p *Pmap) DirectVA(pg *vm.Page) uint64 {
	if p.m.Plat.Arch == arch.I386 {
		panic("pmap: direct map does not exist on i386")
	}
	return DirectMapBase + uint64(pg.PA())
}

// directTranslate inverts the direct map with a single arithmetic
// operation (Section 4.3: "the inverse of this mapping is trivially
// computed").
func (p *Pmap) directTranslate(va uint64) (*vm.Page, error) {
	pa := va - DirectMapBase
	pg := p.m.Phys.PageByFrame(pa >> vm.PageShift)
	if pg == nil {
		return nil, fmt.Errorf("%w: direct-map va %#x beyond physical memory", ErrFault, va)
	}
	return pg, nil
}

// KEnter installs a translation from va to pg, replacing any previous one,
// and returns whether the previous entry was valid and whether its
// accessed bit was set.  It performs no TLB invalidation — that policy
// decision belongs to the caller (this split is exactly where the sf_buf
// implementations differ from the original kernel).
func (p *Pmap) KEnter(ctx *smp.Context, va uint64, pg *vm.Page) (oldValid, oldAccessed bool) {
	if p.IsDirectMapped(va) {
		panic(fmt.Sprintf("pmap: KEnter into direct map va %#x", va))
	}
	vpn := VPN(va)
	p.mu.Lock()
	old := p.pt.enter(vpn, pg.Frame())
	p.mu.Unlock()

	ctx.TouchPTESpan(vpn, 1)
	ctx.Charge(ctx.Cost().PTEWrite)
	return old.Valid, old.Accessed
}

// KRemove invalidates the translation at va.  As with KEnter, TLB
// invalidation is the caller's responsibility.
func (p *Pmap) KRemove(ctx *smp.Context, va uint64) {
	vpn := VPN(va)
	p.mu.Lock()
	p.pt.remove(vpn)
	p.mu.Unlock()
	ctx.TouchPTESpan(vpn, 1)
	ctx.Charge(ctx.Cost().PTEWrite)
}

// KRemoveBatch invalidates the translations for every vpn in one
// page-table pass — the bulk pmap_qremove-style teardown the sharded
// cache's reclaim uses — and reports, for each vpn, whether its entry was
// valid with the accessed bit set (the caller owes TLB invalidations only
// for those).  The result is appended to accessed, which callers on hot
// paths reuse across rounds to stay allocation-free.  As with KRemove,
// TLB invalidation is the caller's responsibility.
func (p *Pmap) KRemoveBatch(ctx *smp.Context, vpns []uint64, accessed []bool) []bool {
	p.mu.Lock()
	for _, vpn := range vpns {
		old := p.pt.remove(vpn)
		accessed = append(accessed, old.Valid && old.Accessed)
	}
	p.mu.Unlock()
	ctx.TouchPTERange(vpns)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(len(vpns)))
	return accessed
}

// KEnterRun installs translations for a contiguous run: pages[i] becomes
// addressable at base + i*PageSize, in ONE page-table pass — the bulk
// pmap_qenter the contiguous-run engines use to populate a reserved VA
// window.  Like KEnter, it performs no TLB invalidation; run windows are
// only ever reused after their previous teardown's invalidations landed,
// which is the caller's (the run pool's) obligation.
//
// Superpage promotion: every SuperpagePages-aligned chunk of the run that
// is fully covered, physically contiguous, AND starts on a
// SuperpagePages-aligned frame is promoted — recorded so that a later
// translation of any of its pages fills ONE large TLB entry covering the
// whole chunk instead of one base entry per page.  Real page-size
// extension hardware demands that physical alignment (a large PTE has no
// low frame bits), so the model does too: a contiguous but misaligned
// chunk maps fine as base pages and counts in SuperStats.AlignSkips — the
// gauge of what opportunistic promotion the alignment discipline
// disqualifies, which the buddy allocator's aligned AllocContig extents
// are there to win back.
func (p *Pmap) KEnterRun(ctx *smp.Context, base uint64, pages []*vm.Page) {
	if p.IsDirectMapped(base) {
		panic(fmt.Sprintf("pmap: KEnterRun into direct map va %#x", base))
	}
	if PageOffset(base) != 0 {
		panic(fmt.Sprintf("pmap: KEnterRun at unaligned va %#x", base))
	}
	vpn0 := VPN(base)
	n := len(pages)
	p.mu.Lock()
	for i, pg := range pages {
		p.pt.enter(vpn0+uint64(i), pg.Frame())
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
		switch {
		case !contig:
		case pages[idx].Frame()%span != 0:
			p.sstat.AlignSkips++
		default:
			l := p.pt.leaf(c, false)
			l.promoted, l.superAccessed, l.superFrame = true, false, pages[idx].Frame()
			p.sstat.Promotions++
		}
	}
	p.mu.Unlock()
	ctx.TouchPTESpan(vpn0, n)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(n))
}

// KRemoveRun invalidates the n translations starting at base in one
// page-table pass, reporting per page whether the entry was valid with
// the accessed bit set — the pages whose teardown owes TLB invalidations.
// Promoted superpage chunks are demoted: if the window's large entry was
// ever pulled into a TLB, EVERY page of the chunk is reported accessed
// (the large entry has no per-page accessed bits to consult).  The result
// is appended to accessed for scratch reuse, as with KRemoveBatch.
func (p *Pmap) KRemoveRun(ctx *smp.Context, base uint64, n int, accessed []bool) []bool {
	vpn0 := VPN(base)
	start := len(accessed)
	p.mu.Lock()
	for i := 0; i < n; i++ {
		old := p.pt.remove(vpn0 + uint64(i))
		accessed = append(accessed, old.Valid && old.Accessed)
	}
	const span = uint64(SuperpagePages)
	for c := (vpn0 + span - 1) &^ (span - 1); c+span <= vpn0+uint64(n); c += span {
		l := p.pt.leaf(c, false)
		if l == nil || !l.promoted {
			continue
		}
		if l.superAccessed {
			idx := start + int(c-vpn0)
			for j := 0; j < SuperpagePages; j++ {
				accessed[idx+j] = true
			}
		}
		l.promoted = false
		p.sstat.Demotions++
	}
	p.mu.Unlock()
	ctx.TouchPTESpan(vpn0, n)
	ctx.Charge(ctx.Cost().PTEWrite * cycles.Cycles(n))
	return accessed
}

// SuperStats returns the cumulative superpage promotion/demotion counts.
func (p *Pmap) SuperStats() SuperStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sstat
}

// Promoted reports whether va currently lies in a promoted superpage
// window (invariant-check helper).
func (p *Pmap) Promoted(va uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.pt.leaf(VPN(va), false)
	return l != nil && l.promoted
}

// Probe returns a copy of the PTE for va, for assertions and the
// accessed-bit-dependent paths (checksum offload experiments).
func (p *Pmap) Probe(va uint64) (PTE, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, i := p.pt.leaf(VPN(va), false), VPN(va)%SuperpagePages
	if l == nil || l.entered[i/64]&(1<<(i%64)) == 0 {
		return PTE{}, false
	}
	return l.pte[i], true
}

// Translate resolves a kernel virtual address to its physical page as the
// hardware would on behalf of the executing CPU:
//
//   - Direct-map addresses translate by arithmetic; they are permanent, so
//     no TLB coherence concern exists and no cost beyond the access itself
//     is charged (Section 4.3: "there is never a TLB invalidation").
//   - Otherwise the CPU's TLB is consulted.  A hit returns the cached
//     frame — even if the page tables have since changed.  A miss walks
//     the page table (charging the walk), faults if invalid, fills the
//     TLB, and sets the PTE accessed bit (and modified bit for writes).
//
// The returned page is the one the access physically touches.
func (p *Pmap) Translate(ctx *smp.Context, va uint64, write bool) (*vm.Page, error) {
	if p.IsDirectMapped(va) {
		return p.directTranslate(va)
	}
	pg, ok := ctx.Translate(p, VPN(va), write)
	if !ok {
		return nil, fmt.Errorf("%w: va %#x", ErrFault, va)
	}
	return pg, nil
}

// Walk implements smp.PageTable: the page-table walk of one TLB miss,
// called by ctx.Translate with the CPU's lock held.  A walk that lands in
// a promoted superpage window fills one large entry covering the whole
// window instead of a base entry for this page alone, and marks the
// window accessed for its future teardown.
func (p *Pmap) Walk(t *tlb.TLB, vpn uint64, write bool) (frame uint64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, pte := p.pt.walk(vpn, write)
	if pte == nil {
		return 0, false
	}
	l.fill(t, vpn, pte.Frame)
	return pte.Frame, true
}

// fill caches the walked translation of vpn, an entry of l, in t and
// returns how many pages from vpn on the filled TLB entry covers.
func (l *ptLeaf) fill(t *tlb.TLB, vpn, frame uint64) int {
	if !l.promoted {
		t.Insert(vpn, frame)
		return 1
	}
	l.superAccessed = true
	t.InsertLarge(vpn&^(SuperpagePages-1), l.superFrame)
	return SuperpagePages - int(vpn%SuperpagePages)
}

// TranslateRun resolves npages consecutive kernel virtual pages starting
// at the page-aligned va, as the executing CPU's MMU behaves during a
// copy that sweeps a contiguous mapping: each page consults the TLB first
// and BELIEVES it (stale entries are honored, exactly as in Translate),
// and the first miss triggers ONE page-table walk that resolves every
// remaining page of the range.  Consecutive virtual pages are one
// contiguous PTE run — the walker reads the covering page-table lines
// once — so the cycle model charges one TLBMissWalk per run, not per
// page.  That ranged charge is the kcopy cost model the direct map gets
// for free on amd64 and that scattered per-page mappings can never have.
//
// TLB fill: pages inside a promoted superpage window fill one large entry
// for the whole window; the rest fill one base entry each.  Direct-map
// ranges translate by arithmetic with no TLB involvement at all.
//
// The resolved pages are appended to out (pass a reused slice on hot
// paths to stay allocation-free).
func (p *Pmap) TranslateRun(ctx *smp.Context, va uint64, npages int, write bool, out []*vm.Page) ([]*vm.Page, error) {
	if PageOffset(va) != 0 {
		return nil, fmt.Errorf("pmap: TranslateRun at unaligned va %#x", va)
	}
	if p.IsDirectMapped(va) {
		for i := 0; i < npages; i++ {
			pg, err := p.directTranslate(va + uint64(i)*vm.PageSize)
			if err != nil {
				return nil, err
			}
			out = append(out, pg)
		}
		return out, nil
	}
	out, bad := ctx.TranslateRun(p, VPN(va), npages, write, out)
	if bad >= 0 {
		return nil, fmt.Errorf("%w: va %#x", ErrFault, va+uint64(bad)*vm.PageSize)
	}
	return out, nil
}

// WalkRun implements smp.PageTable: the one walk that resolves the rest
// of a ranged translation after its first TLB miss.
func (p *Pmap) WalkRun(t *tlb.TLB, vpn uint64, n int, write bool, out []*vm.Page) ([]*vm.Page, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	first := len(out)
	for i := 0; i < n; i++ {
		_, pte := p.pt.walk(vpn+uint64(i), write)
		if pte == nil {
			return out, i
		}
		pg := p.m.Phys.PageByFrame(pte.Frame)
		if pg == nil {
			return out, i
		}
		out = append(out, pg)
	}
	for i := 0; i < n; {
		v := vpn + uint64(i)
		i += p.pt.leaf(v, false).fill(t, v, out[first+i].Frame())
	}
	return out, -1
}

// Mappings returns the number of valid kernel translations; test helper.
func (p *Pmap) Mappings() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pt.valid
}
