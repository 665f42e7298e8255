package smp

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// flatPT is a one-level page table: vpn -> frame, base entries only.
type flatPT map[uint64]uint64

func (pt flatPT) Walk(t *tlb.TLB, vpn uint64, _ bool) (uint64, bool) {
	frame, ok := pt[vpn]
	if ok {
		t.Insert(vpn, frame)
	}
	return frame, ok
}

func (pt flatPT) WalkRun(t *tlb.TLB, vpn uint64, n int, _ bool, out []*vm.Page) ([]*vm.Page, int) {
	panic("unused")
}

// TestTranslateStep: a hit is free and believed; a miss charges one walk,
// touches the entry's line — before it knows whether the walk faults — and
// fills the walking CPU's TLB.
func TestTranslateStep(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx := m.Ctx(1)
	pt := flatPT{7: 3}
	pg, ok := ctx.Translate(pt, 7, false)
	if !ok || pg.Frame() != 3 {
		t.Fatalf("Translate(7) = %v,%v, want frame 3", pg, ok)
	}
	walk := m.Plat.Cost.TLBMissWalk
	if got := m.CPU(1).Cycles(); got != walk || m.Counters().PTWalks.Load() != 1 {
		t.Fatalf("miss charged %d cycles, %d walks; want %d, 1", got, m.Counters().PTWalks.Load(), walk)
	}
	if !m.CPU(1).TLBResident(7) || m.CPU(0).TLBResident(7) {
		t.Fatal("the walk must fill the walking CPU's TLB and no other")
	}
	pt[7] = 4 // the page table moves on; the TLB is believed
	if pg, ok := ctx.Translate(pt, 7, false); !ok || pg.Frame() != 3 || m.CPU(1).Cycles() != walk {
		t.Fatalf("hit = %v,%v at %d cycles; want stale frame 3, no charge", pg, ok, m.CPU(1).Cycles())
	}
	if _, ok := ctx.Translate(pt, 64, false); ok {
		t.Fatal("unmapped vpn translated")
	}
	if m.CPU(1).Cycles() != 2*walk {
		t.Fatal("a faulting walk is still a walk")
	}
	before := m.CPU(1).Cycles()
	ctx.InvalidateLocal(64) // its PTE line is warm: the cached-PTE price
	if got := m.CPU(1).Cycles() - before; got != m.Plat.Cost.LocalInvCachedPTE {
		t.Fatalf("invlpg after a faulting walk cost %d, want the cached %d", got, m.Plat.Cost.LocalInvCachedPTE)
	}
}
