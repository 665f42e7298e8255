package smp

import "sync"

// This file implements batched TLB shootdowns: a per-CPU queue of pending
// remote invalidations that is drained with a single ranged IPI round.
//
// The paper's protocol avoids most invalidations outright; the ones that
// remain (tearing down mappings whose accessed bit is set) need not happen
// one IPI round at a time.  A mapping's cpumask already says exactly which
// CPUs may cache its translation, so the teardown path can record the debt
// — (cpumask, vpn) — in its CPU's queue and keep going.  The queue is
// flushed in ONE ranged shootdown when either a threshold of pending lines
// accumulates or the caller needs the addresses clean for reuse (an
// allocation miss about to recycle the virtual addresses).  The flushing
// CPU's own share of the debt is retired the same way: one ranged local
// pass over its TLB before the IPI round, not one invlpg call per line.
//
// Deferral is sound only for invalidations whose staleness is not yet
// observable: the mapping-cache layer queues a line strictly before the
// virtual address is reused, and flushes before handing the address out
// again.  The queue itself enforces nothing about reuse; it is a batching
// mechanism, not a coherence protocol.

// DefaultShootdownBatch is the queue depth at which a flush is forced even
// if no allocation needs the addresses yet, bounding both queue memory and
// the staleness window of any one TLB line.
const DefaultShootdownBatch = 64

// pendingInv is one deferred invalidation: the virtual page and the CPUs
// that may cache its translation.
type pendingInv struct {
	vpn     uint64
	targets CPUSet
}

// shootdownQueue is one CPU's pending-invalidation queue.  Its mutex only
// arbitrates between kernel threads pinned to the same virtual CPU; it is
// never contended across CPUs.
type shootdownQueue struct {
	mu      sync.Mutex
	pending []pendingInv
	// spare and vpnSpare recycle the drained slices so steady-state
	// flushing does not allocate.
	spare    []pendingInv
	vpnSpare []uint64
}

// QueueShootdown records that vpn may be cached by the TLBs of targets and
// must be invalidated there before the address is reused.  The entry is
// queued on the context CPU's shootdown queue; when the queue reaches the
// machine's batch threshold it is flushed immediately.  Entries with no
// targets are dropped (nothing to invalidate anywhere).
func (c *Context) QueueShootdown(targets CPUSet, vpn uint64) {
	if targets.Empty() {
		return
	}
	q := c.m.sdq[c.cpu.ID]
	q.mu.Lock()
	q.pending = append(q.pending, pendingInv{vpn: vpn, targets: targets})
	force := len(q.pending) >= c.m.ShootdownBatch()
	q.mu.Unlock()
	if force {
		c.FlushShootdowns()
	}
}

// QueueShootdownBatch queues one invalidation per vpns[i]/targets[i] pair
// under a single lock round — the bulk enqueue a batched teardown uses.
// Pairs with no targets are dropped.  The slices must be equal length.
func (c *Context) QueueShootdownBatch(targets []CPUSet, vpns []uint64) {
	if len(targets) != len(vpns) {
		panic("smp: QueueShootdownBatch slice length mismatch")
	}
	q := c.m.sdq[c.cpu.ID]
	q.mu.Lock()
	for i, t := range targets {
		if t.Empty() {
			continue
		}
		q.pending = append(q.pending, pendingInv{vpn: vpns[i], targets: t})
	}
	force := len(q.pending) >= c.m.ShootdownBatch()
	q.mu.Unlock()
	if force {
		c.FlushShootdowns()
	}
}

// PendingShootdowns reports how many invalidations are queued on the
// context CPU.
func (c *Context) PendingShootdowns() int {
	q := c.m.sdq[c.cpu.ID]
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// FlushShootdowns drains the context CPU's queue: entries targeting the
// flushing CPU are purged in ONE ranged local pass (InvalidateLocalRange:
// one CPU-lock round, the same per-page invlpg charges and LocalInv
// counts as a per-entry loop), and all remaining targets receive ONE
// ranged shootdown covering every queued page.  The
// union of target masks is used — a remote handler may invalidate lines it
// never cached, which wastes a few handler cycles but is always sound.
// Returns the number of invalidations retired.
func (c *Context) FlushShootdowns() int {
	q := c.m.sdq[c.cpu.ID]
	q.mu.Lock()
	if len(q.pending) == 0 {
		q.mu.Unlock()
		return 0
	}
	batch := q.pending
	q.pending = q.spare[:0]
	q.spare = nil
	vpns := q.vpnSpare[:0]
	q.vpnSpare = nil
	q.mu.Unlock()

	// One pass gathers the remote round's vpns and notes whether any
	// entry targets this CPU; only then does a second pass append those
	// entries' vpns, in batch order, for one ranged local purge, which
	// charges, counts and touches the PTE cache as one InvalidateLocal
	// per entry would.  The purge precedes the IPI round.
	self := c.cpu.ID
	var remote CPUSet
	local := false
	for _, p := range batch {
		if p.targets.Has(self) {
			local = true
		}
		if rt := p.targets.Clear(self); !rt.Empty() {
			remote = remote.Union(rt)
			vpns = append(vpns, p.vpn)
		}
	}
	nr := len(vpns)
	if local {
		for _, p := range batch {
			if p.targets.Has(self) {
				vpns = append(vpns, p.vpn)
			}
		}
		c.InvalidateLocalRange(vpns[nr:])
	}
	c.ShootdownRange(remote, vpns[:nr])
	c.m.counters.BatchedFlushes.Add(1)
	c.m.counters.BatchedInv.Add(uint64(len(batch)))

	n := len(batch)
	q.mu.Lock()
	if q.spare == nil {
		q.spare = batch[:0]
	}
	if q.vpnSpare == nil {
		q.vpnSpare = vpns[:0]
	}
	q.mu.Unlock()
	return n
}

// SetShootdownBatch sets the queue depth that forces a flush; n <= 0
// restores the default.  Call before the machine runs workloads.
func (m *Machine) SetShootdownBatch(n int) {
	if n <= 0 {
		n = DefaultShootdownBatch
	}
	m.sdBatch.Store(int64(n))
}

// ShootdownBatch returns the current flush threshold.
func (m *Machine) ShootdownBatch() int {
	if b := m.sdBatch.Load(); b > 0 {
		return int(b)
	}
	return DefaultShootdownBatch
}
