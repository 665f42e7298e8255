package smp

import (
	"testing"

	"sfbuf/internal/arch"
)

func TestMachineTopology(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 64, false)
	if m.NumCPUs() != 4 {
		t.Fatalf("cpus = %d, want 4", m.NumCPUs())
	}
	// SMT siblings 0,1 share core 0; 2,3 share core 1.
	if m.CPU(0).Core != m.CPU(1).Core {
		t.Fatal("cpus 0,1 should share a core")
	}
	if m.CPU(0).Core == m.CPU(2).Core {
		t.Fatal("cpus 0,2 should be on different cores")
	}
	if m.AllCPUs() != AllCPUs(4) {
		t.Fatalf("all = %v", m.AllCPUs())
	}
}

func TestChargeAccounting(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 64, false)
	ctx := m.Ctx(1)
	ctx.Charge(100)
	ctx.ChargeBytes(1.5, 1000)
	if got := m.CPU(1).Cycles(); got != 100+1500 {
		t.Fatalf("cpu1 cycles = %d, want 1600", got)
	}
	if got := m.CPU(0).Cycles(); got != 0 {
		t.Fatalf("cpu0 cycles = %d, want 0", got)
	}
	if m.TotalCycles() != 1600 {
		t.Fatalf("total = %d", m.TotalCycles())
	}
}

func TestChargeLockOnlyOnMPKernels(t *testing.T) {
	up := NewMachine(arch.XeonUP(), 16, false)
	up.Ctx(0).ChargeLock()
	if up.TotalCycles() != 0 {
		t.Fatal("UP kernel must not pay lock overhead")
	}
	mp := NewMachine(arch.XeonMP(), 16, false)
	mp.Ctx(0).ChargeLock()
	if mp.TotalCycles() != mp.Plat.Cost.LockUncontended {
		t.Fatalf("MP lock cost = %d", mp.TotalCycles())
	}
}

func TestLocalInvalidateCostsAndCounts(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 64, false)
	ctx := m.Ctx(0)
	// First invalidation: PTE line cold -> uncached cost.
	ctx.InvalidateLocal(42)
	uncached := m.CPU(0).Cycles()
	if uncached != m.Plat.Cost.LocalInvUncachedPTE {
		t.Fatalf("first invalidation cost %d, want uncached %d", uncached, m.Plat.Cost.LocalInvUncachedPTE)
	}
	// Second invalidation of the same VPN: line now hot -> cached cost.
	ctx.InvalidateLocal(42)
	second := m.CPU(0).Cycles() - uncached
	if second != m.Plat.Cost.LocalInvCachedPTE {
		t.Fatalf("second invalidation cost %d, want cached %d", second, m.Plat.Cost.LocalInvCachedPTE)
	}
	if got := m.Counters().LocalInv.Load(); got != 2 {
		t.Fatalf("local invalidations = %d, want 2", got)
	}
}

func cyc[T ~int64](v T) T { return v }

func TestLocalInvalidateDropsTLBEntry(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 64, false)
	ctx := m.Ctx(0)
	fillTLB(ctx, 7, 77)
	if !m.CPU(0).TLBResident(7) {
		t.Fatal("entry not inserted")
	}
	ctx.InvalidateLocal(7)
	if m.CPU(0).TLBResident(7) {
		t.Fatal("entry survived invalidation")
	}
}

func TestShootdownSemantics(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 64, false)
	// Fill VPN 9 into every TLB.
	for i := 0; i < 4; i++ {
		fillTLB(m.Ctx(i), 9, 99)
	}
	ctx := m.Ctx(0)
	ctx.Shootdown(AllCPUs(4), 9)

	// The initiator's own TLB is NOT touched by a shootdown (it issues a
	// separate local invalidation when needed).
	if !m.CPU(0).TLBResident(9) {
		t.Fatal("shootdown must not touch the initiator's TLB")
	}
	for i := 1; i < 4; i++ {
		if m.CPU(i).TLBResident(9) {
			t.Fatalf("cpu %d still holds the entry", i)
		}
	}
	// One issue event regardless of target count; three deliveries.
	if got := m.Counters().RemoteInvIssued.Load(); got != 1 {
		t.Fatalf("remote issued = %d, want 1", got)
	}
	if got := m.Counters().IPIsDelivered.Load(); got != 3 {
		t.Fatalf("IPIs delivered = %d, want 3", got)
	}
	// The initiator waits the platform's measured shootdown latency; the
	// handler work overlaps that wait, so it accrues to the machine-wide
	// HandlerCycles counter rather than the target CPUs' clocks.
	if got := m.CPU(0).Cycles(); got != m.Plat.RemoteShootdownWait {
		t.Fatalf("initiator wait = %d, want %d", got, m.Plat.RemoteShootdownWait)
	}
	if got := m.CPU(2).Cycles(); got != 0 {
		t.Fatalf("target CPU charged %d, want 0 (handler cycles overlap the wait)", got)
	}
	if got := m.Counters().HandlerCycles.Load(); got != 3*int64(m.Plat.Cost.IPIHandler) {
		t.Fatalf("handler cycles = %d, want %d", got, 3*int64(m.Plat.Cost.IPIHandler))
	}
}

func TestShootdownRange(t *testing.T) {
	m := NewMachine(arch.OpteronMP(), 64, false)
	vpns := []uint64{10, 11, 12, 13}
	for _, v := range vpns {
		fillTLB(m.Ctx(1), v, v*10)
	}
	ctx := m.Ctx(0)
	ctx.ShootdownRange(AllCPUs(2), vpns)
	for _, v := range vpns {
		if m.CPU(1).TLBResident(v) {
			t.Fatalf("vpn %d survived the ranged shootdown", v)
		}
	}
	// One issue event for the whole range.
	if got := m.Counters().RemoteInvIssued.Load(); got != 1 {
		t.Fatalf("remote issued = %d, want 1", got)
	}
	want := m.Plat.RemoteShootdownWait + m.Plat.Cost.RangedShootdownPerPage*4
	if got := m.CPU(0).Cycles(); got != want {
		t.Fatalf("initiator wait = %d, want %d", got, want)
	}
	// A ranged shootdown with no vpns or no remote targets is free.
	m.ResetCounters()
	ctx.ShootdownRange(AllCPUs(2), nil)
	ctx.ShootdownRange(AllCPUs(1), vpns)
	if m.TotalCycles() != 0 || m.Counters().RemoteInvIssued.Load() != 0 {
		t.Fatal("empty ranged shootdowns must be free")
	}
}

func TestShootdownWithNoRemoteTargetsIsFree(t *testing.T) {
	m := NewMachine(arch.XeonUP(), 16, false)
	ctx := m.Ctx(0)
	ctx.Shootdown(AllCPUs(1), 5) // only target is the initiator itself
	if m.Counters().RemoteInvIssued.Load() != 0 {
		t.Fatal("self-only shootdown must not count as issued")
	}
	if m.TotalCycles() != 0 {
		t.Fatal("self-only shootdown must be free")
	}
}

func TestInvalidateGlobal(t *testing.T) {
	m := NewMachine(arch.OpteronMP(), 64, false)
	fillTLB(m.Ctx(0), 3, 30)
	fillTLB(m.Ctx(1), 3, 30)
	m.Ctx(0).InvalidateGlobal(3)
	if m.CPU(0).TLBResident(3) || m.CPU(1).TLBResident(3) {
		t.Fatal("global invalidation left entries behind")
	}
	if m.Counters().LocalInv.Load() != 1 || m.Counters().RemoteInvIssued.Load() != 1 {
		t.Fatalf("counters local=%d remote=%d, want 1,1",
			m.Counters().LocalInv.Load(), m.Counters().RemoteInvIssued.Load())
	}
}

func TestParallelCyclesSMTAndCores(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 16, false)
	// 1000 cycles on each sibling of core 0 -> with SMT speedup 1.25 the
	// core needs 2000/1.25 = 1600 elapsed cycles.  Core 1 idle.
	m.Ctx(0).Charge(1000)
	m.Ctx(1).Charge(1000)
	if got := m.ParallelCycles(); got != 1600 {
		t.Fatalf("parallel cycles = %d, want 1600", got)
	}
	// Load core 1's single thread more than core 0's effective time.
	m.Ctx(2).Charge(5000)
	if got := m.ParallelCycles(); got != 5000 {
		t.Fatalf("parallel cycles = %d, want 5000 (busiest core)", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	m := NewMachine(arch.OpteronMP(), 16, false)
	before := m.SnapshotCounters()
	m.Ctx(0).InvalidateGlobal(1)
	delta := m.SnapshotCounters().Sub(before)
	if delta.LocalInv != 1 || delta.RemoteInvIssued != 1 || delta.IPIsDelivered != 1 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestResetCounters(t *testing.T) {
	m := NewMachine(arch.OpteronMP(), 16, false)
	m.Ctx(0).InvalidateGlobal(1)
	m.Ctx(0).Charge(123)
	m.ResetCounters()
	if m.TotalCycles() != 0 || m.Counters().LocalInv.Load() != 0 {
		t.Fatal("reset left residue")
	}
}

func TestInterruptFlag(t *testing.T) {
	m := NewMachine(arch.XeonUP(), 16, false)
	ctx := m.Ctx(0)
	if ctx.Interrupted() {
		t.Fatal("fresh context is interrupted")
	}
	ctx.Interrupt()
	if !ctx.InterruptPending() {
		t.Fatal("pending not visible")
	}
	if !ctx.Interrupted() {
		t.Fatal("interrupt not observed")
	}
	if ctx.Interrupted() {
		t.Fatal("interrupt not cleared after observation")
	}
}

func TestCPUSetOperations(t *testing.T) {
	var s CPUSet
	s = s.Set(0).Set(3).Set(5)
	if !s.Has(3) || s.Has(1) {
		t.Fatalf("set contents wrong: %v", s)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	s = s.Clear(3)
	if s.Has(3) {
		t.Fatal("clear failed")
	}
	if got := AllCPUs(4); got != 0xF {
		t.Fatalf("AllCPUs(4) = %#x", uint64(got))
	}
	if got := AllCPUs(0); got != 0 {
		t.Fatalf("AllCPUs(0) = %#x", uint64(got))
	}
	a, b := AllCPUs(4), CPUSet(0).Set(1).Set(2)
	if a.Minus(b) != CPUSet(0).Set(0).Set(3) {
		t.Fatalf("minus = %v", a.Minus(b))
	}
	var visited []int
	b.ForEach(func(c int) { visited = append(visited, c) })
	if len(visited) != 2 || visited[0] != 1 || visited[1] != 2 {
		t.Fatalf("ForEach order = %v", visited)
	}
	if b.String() != "{1,2}" {
		t.Fatalf("String = %q", b.String())
	}
}

// fillTLB plants vpn -> frame in the context CPU's TLB, as the fill at the
// end of a page-table walk would, charging nothing.
func fillTLB(c *Context, vpn, frame uint64) {
	c.cpu.mu.Lock()
	c.cpu.tlb.Insert(vpn, frame)
	c.cpu.mu.Unlock()
}
