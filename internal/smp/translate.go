package smp

import (
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// PageTable is what a CPU's hardware walker reads on a TLB miss; package
// pmap implements it.  Both methods run with the walking CPU's lock held,
// t being that CPU's TLB, and may take the page table's own lock.
type PageTable interface {
	// Walk resolves vpn.  It fails on an invalid entry; otherwise it sets
	// the entry's accessed (and, for a write, modified) bit, fills t — one
	// large entry if vpn lies in a promoted superpage window, one base
	// entry if not — and returns the mapped frame.
	Walk(t *tlb.TLB, vpn uint64, write bool) (frame uint64, ok bool)
	// WalkRun is Walk over the n consecutive pages from vpn in one pass,
	// appending their pages to out.  It returns the index of the first
	// page that faulted — t is then left unfilled — or -1.
	WalkRun(t *tlb.TLB, vpn uint64, n int, write bool, out []*vm.Page) ([]*vm.Page, int)
}

// Translate is one step of the context CPU's MMU: the TLB is consulted
// and BELIEVED, stale or not, at no cycle cost; on a miss the walk is
// charged, the entry's cache line touched, pt walked and the TLB filled.
// The whole step holds the CPU's lock once, as a hardware walk is atomic
// with respect to the interrupt that delivers a shootdown.  It returns the
// page the access physically touches, or false on a fault.
func (c *Context) Translate(pt PageTable, vpn uint64, write bool) (*vm.Page, bool) {
	cpu := c.cpu
	cpu.mu.Lock()
	defer cpu.mu.Unlock()
	frame, ok := cpu.tlb.Lookup(vpn)
	if !ok {
		c.ChargeWalk()
		cpu.pteCache.touch(vpn)
		if frame, ok = pt.Walk(cpu.tlb, vpn, write); !ok {
			return nil, false
		}
	}
	pg := c.m.Phys.PageByFrame(frame)
	return pg, pg != nil
}

// TranslateRun is Translate over the n consecutive pages from vpn, as the
// MMU behaves during a copy that sweeps a contiguous mapping: each page
// consults the TLB first, and the first miss triggers ONE walk — one
// charge, every remaining entry's line touched — that resolves the rest
// of the range.  The pages are appended to out; the second result is the
// index of the page that faulted, or -1.
func (c *Context) TranslateRun(pt PageTable, vpn uint64, n int, write bool, out []*vm.Page) ([]*vm.Page, int) {
	cpu := c.cpu
	cpu.mu.Lock()
	defer cpu.mu.Unlock()
	i := 0
	for ; i < n; i++ {
		frame, ok := cpu.tlb.Lookup(vpn + uint64(i))
		if !ok {
			break
		}
		pg := c.m.Phys.PageByFrame(frame)
		if pg == nil {
			return out, i
		}
		out = append(out, pg)
	}
	if i == n {
		return out, -1
	}
	c.ChargeWalk()
	for j := i; j < n; j++ {
		cpu.pteCache.touch(vpn + uint64(j))
	}
	out, bad := pt.WalkRun(cpu.tlb, vpn+uint64(i), n-i, write, out)
	if bad >= 0 {
		bad += i
	}
	return out, bad
}
