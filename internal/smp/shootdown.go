package smp

import "sfbuf/internal/cycles"

// This file implements the software TLB-coherence protocol the paper's
// Section 1 describes: "The processor initiating a mapping change issues an
// interprocessor interrupt (IPI) to each of the processors that share the
// mapping; the interrupt handler that is executed by each of these
// processors includes an instruction, such as invlpg, that invalidates that
// processor's TLB entry for the mapping's virtual address."

// InvalidateLocal performs an invlpg on the context's own CPU: the entry
// for vpn is dropped from its TLB and the cached- or uncached-PTE cost from
// the platform model is charged.  It increments the machine's LocalInv
// counter — the metric the paper plots as "local TLB invalidations issued".
func (c *Context) InvalidateLocal(vpn uint64) {
	cpu := c.cpu
	cpu.mu.Lock()
	cached := cpu.pteCache.touch(vpn)
	cpu.tlb.Invalidate(vpn)
	cpu.mu.Unlock()
	if cached {
		c.Charge(c.Cost().LocalInvCachedPTE)
	} else {
		c.Charge(c.Cost().LocalInvUncachedPTE)
	}
	c.m.counters.LocalInv.Add(1)
}

// InvalidateLocalRange purges every vpn from the context CPU's TLB in one
// pass: the same per-entry invlpg costs and LocalInv counts as calling
// InvalidateLocal per page, but a single lock round trip — the local half
// of a batched teardown.
func (c *Context) InvalidateLocalRange(vpns []uint64) {
	if len(vpns) == 0 {
		return
	}
	cpu := c.cpu
	var cached int
	cpu.mu.Lock()
	for _, vpn := range vpns {
		if cpu.pteCache.touch(vpn) {
			cached++
		}
		cpu.tlb.Invalidate(vpn)
	}
	cpu.mu.Unlock()
	c.Charge(c.Cost().LocalInvCachedPTE*cycles.Cycles(cached) +
		c.Cost().LocalInvUncachedPTE*cycles.Cycles(len(vpns)-cached))
	c.m.counters.LocalInv.Add(uint64(len(vpns)))
}

// TouchPTERange records that the context's CPU accessed every vpn's
// page-table entry, warming the modeled PTE data cache, in one lock round.
// The PTE store of a mapping change does this (the walk on a TLB miss
// touches inside Translate).
func (c *Context) TouchPTERange(vpns []uint64) {
	c.cpu.mu.Lock()
	for _, vpn := range vpns {
		c.cpu.pteCache.touch(vpn)
	}
	c.cpu.mu.Unlock()
}

// TouchPTESpan records PTE-cache touches for n consecutive vpns starting
// at start — the contiguous-run form of TouchPTERange, taken by the
// KEnterRun/KRemoveRun bulk page-table passes.
func (c *Context) TouchPTESpan(start uint64, n int) {
	c.cpu.mu.Lock()
	for i := 0; i < n; i++ {
		c.cpu.pteCache.touch(start + uint64(i))
	}
	c.cpu.mu.Unlock()
}

// Shootdown sends TLB-shootdown IPIs for vpn to every CPU in targets other
// than the initiator.  The initiator is charged the platform's measured
// shootdown wait (it spins until all targets acknowledge); each target is
// charged the IPI handler cost and loses its TLB entry for vpn.
//
// One call counts as one "remote TLB invalidation issued" regardless of how
// many targets it reaches, matching the paper's counting rule.  Calls with
// no remote targets are free no-ops, which is how uniprocessor platforms
// avoid all shootdown cost.
//
// The remote handler's own cycles accrue to the machine's HandlerCycles
// counter rather than the target CPUs' clocks: handler execution overlaps
// the initiator's charged wait, so adding it to per-CPU time would count
// the same wall-clock interval twice.
func (c *Context) Shootdown(targets CPUSet, vpn uint64) {
	targets = targets.Clear(c.cpu.ID)
	if targets.Empty() {
		return
	}
	c.m.counters.RemoteInvIssued.Add(1)
	c.Charge(c.m.Plat.RemoteShootdownWait)
	targets.ForEach(func(id int) {
		if id >= len(c.m.cpus) {
			return
		}
		t := c.m.cpus[id]
		t.mu.Lock()
		t.tlb.Invalidate(vpn)
		t.mu.Unlock()
		c.m.counters.HandlerCycles.Add(int64(c.Cost().IPIHandler))
		c.m.counters.IPIsDelivered.Add(1)
		c.chargeRemoteIPI(id)
	})
}

// chargeRemoteIPI accounts one IPI delivery crossing a package boundary:
// when the target sits on a different socket than the initiator, the
// initiator pays the platform's RemoteIPIExtra on top of its shootdown
// wait and the delivery is counted in Counters.RemoteIPIs.  A no-op on a
// one-socket topology.
func (c *Context) chargeRemoteIPI(target int) {
	if c.m.topo.Sockets > 1 && c.m.topo.SocketOf(target) != c.Socket() {
		c.Charge(c.m.Plat.Cost.RemoteIPIExtra)
		c.m.counters.RemoteIPIs.Add(1)
	}
}

// ShootdownRange sends one ranged shootdown covering all vpns: a single
// IPI round whose handlers invalidate every page of the range, the way
// pmap_qremove-style bulk unmappings invalidate.  The initiator waits the
// base shootdown latency plus a per-page increment; the whole range counts
// as ONE remote invalidation issued.
func (c *Context) ShootdownRange(targets CPUSet, vpns []uint64) {
	targets = targets.Clear(c.cpu.ID)
	if targets.Empty() || len(vpns) == 0 {
		return
	}
	c.m.counters.RemoteInvIssued.Add(1)
	c.Charge(c.m.Plat.RemoteShootdownWait +
		c.Cost().RangedShootdownPerPage*cycles.Cycles(len(vpns)))
	targets.ForEach(func(id int) {
		if id >= len(c.m.cpus) {
			return
		}
		t := c.m.cpus[id]
		t.mu.Lock()
		t.tlb.InvalidateRange(vpns)
		t.mu.Unlock()
		c.m.counters.HandlerCycles.Add(int64(c.Cost().IPIHandler) +
			int64(c.Cost().LocalInvCachedPTE)*int64(len(vpns)))
		c.m.counters.IPIsDelivered.Add(1)
		c.chargeRemoteIPI(id)
	})
}

// InvalidateGlobal performs a local invalidation plus a shootdown to every
// other CPU: the unconditional global invalidation the original kernel
// issues when it tears down an ephemeral mapping.
func (c *Context) InvalidateGlobal(vpn uint64) {
	c.InvalidateLocal(vpn)
	c.Shootdown(c.m.AllCPUs(), vpn)
}

// FlushLocalTLB drops every entry from the context CPU's TLB.
func (c *Context) FlushLocalTLB() {
	c.cpu.mu.Lock()
	c.cpu.tlb.FlushAll()
	c.cpu.mu.Unlock()
	c.m.counters.FullFlushes.Add(1)
}
