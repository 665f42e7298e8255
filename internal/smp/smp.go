// Package smp models the multiprocessor machine: virtual CPUs with private
// TLBs and cycle counters, and the software TLB-coherence protocol
// (interprocessor-interrupt shootdowns) whose cost the paper sets out to
// avoid.
//
// Everything that happens in the simulated kernel happens on behalf of a
// Context — a kernel thread pinned to one virtual CPU.  Operations charge
// cycles to that CPU; machine-wide event counters record every local and
// remote TLB invalidation issued, which is the metric plotted in the
// paper's Figures 3, 5, 7, 10, 13, 14, 17, 18 and 20.
package smp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

// CPU is one virtual processor.
type CPU struct {
	// ID is the virtual CPU id, dense from 0.
	ID int
	// Core is the physical core index this virtual CPU belongs to; SMT
	// siblings share a core.
	Core int

	// mu guards tlb and pteCache (shootdowns cross CPUs).  Lock order:
	// cpu.mu -> pmap.mu — a translation holds mu across its page-table
	// walk — so nothing that holds the pmap lock may call into a CPU, and
	// a shootdown handler takes only its target's mu.
	mu  sync.Mutex
	tlb *tlb.TLB
	// pteCache models which page-table entries are resident in this
	// CPU's data cache, deciding the cached/uncached invlpg cost split
	// that Section 3 measures.
	pteCache lineCache

	cycles atomic.Int64
}

// Cycles returns the cycles this CPU has consumed since the last reset.
func (c *CPU) Cycles() cycles.Cycles { return cycles.Cycles(c.cycles.Load()) }

// TLBStats returns a copy of this CPU's TLB event counters.
func (c *CPU) TLBStats() tlb.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tlb.Stats()
}

// TLBResident reports whether the CPU's TLB holds an entry for vpn
// (invariant-check helper; takes the CPU lock).
func (c *CPU) TLBResident(vpn uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tlb.Resident(vpn)
}

// TLBFrameOf returns the frame the CPU's TLB maps vpn to, if resident.
func (c *CPU) TLBFrameOf(vpn uint64) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tlb.FrameOf(vpn)
}

// Counters aggregates machine-wide TLB coherence events.  All fields are
// updated atomically and may be read while the machine runs.
type Counters struct {
	// LocalInv counts TLB invalidations a CPU performed on its own TLB
	// outside of shootdown handling (the paper's "local invalidations
	// issued").
	LocalInv atomic.Uint64
	// RemoteInvIssued counts shootdown initiations: one per operation
	// that sent IPIs, regardless of target count, matching the paper's
	// "we count the number of remote TLB invalidations issued and not
	// the number that actually happen on the remote processors".
	RemoteInvIssued atomic.Uint64
	// IPIsDelivered counts per-target IPI deliveries.
	IPIsDelivered atomic.Uint64
	// FullFlushes counts whole-TLB flushes.
	FullFlushes atomic.Uint64
	// HandlerCycles accumulates the cycles remote CPUs spend in
	// shootdown interrupt handlers.  They are tracked separately from
	// the per-CPU counters because handler execution overlaps the
	// initiator's (already charged) wait — folding both into elapsed
	// time would double-count wall-clock time.
	HandlerCycles atomic.Int64
	// BatchedFlushes counts shootdown-queue drains (each at most one
	// ranged IPI round) and BatchedInv the invalidations they retired;
	// BatchedInv/BatchedFlushes is the coalescing factor batching earns.
	BatchedFlushes atomic.Uint64
	BatchedInv     atomic.Uint64
	// LockAcq counts kernel lock round trips charged through ChargeLock.
	// It is the denominator-free form of the vectored-path economy claim:
	// a batched mapper operation must take fewer lock round trips per
	// page than the equivalent run of single-page operations.
	LockAcq atomic.Uint64
	// PTWalks counts page-table walks charged through ChargeWalk: one per
	// single-page TLB miss, and one per contiguous PTE run on the ranged
	// translate path.  Walks per page is the economy metric the
	// contiguous-run work targets.
	PTWalks atomic.Uint64
	// RemoteLockAcq counts the subset of LockAcq whose lock home socket
	// differed from the acquiring CPU's socket — cross-package cache-line
	// transfers on a multi-socket machine.  Always zero on a one-socket
	// topology.
	RemoteLockAcq atomic.Uint64
	// RemoteIPIs counts the subset of IPIsDelivered whose target CPU sat
	// on a different socket than the initiator.  Always zero on a
	// one-socket topology.
	RemoteIPIs atomic.Uint64
	// RemoteMemCycles accumulates the extra cycles cross-socket memory
	// traffic cost: copies, zeroing, and checksums whose frame is homed on
	// another socket pay the platform's RemoteMemPerByte surcharge, which
	// lands both on the CPU and here.  Always zero on a one-socket
	// topology.
	RemoteMemCycles atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	LocalInv        uint64
	RemoteInvIssued uint64
	IPIsDelivered   uint64
	FullFlushes     uint64
	HandlerCycles   int64
	BatchedFlushes  uint64
	BatchedInv      uint64
	LockAcq         uint64
	PTWalks         uint64
	// DaemonCycles is always zero: the machine runs no background work.
	// The field stays because the repo benchmark's per-layer report
	// still reads it (smp.daemon_cyc_per_page).
	DaemonCycles    int64
	RemoteLockAcq   uint64
	RemoteIPIs      uint64
	RemoteMemCycles int64
}

// Sub returns the event deltas since an earlier snapshot.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		LocalInv:        s.LocalInv - earlier.LocalInv,
		RemoteInvIssued: s.RemoteInvIssued - earlier.RemoteInvIssued,
		IPIsDelivered:   s.IPIsDelivered - earlier.IPIsDelivered,
		FullFlushes:     s.FullFlushes - earlier.FullFlushes,
		HandlerCycles:   s.HandlerCycles - earlier.HandlerCycles,
		BatchedFlushes:  s.BatchedFlushes - earlier.BatchedFlushes,
		BatchedInv:      s.BatchedInv - earlier.BatchedInv,
		LockAcq:         s.LockAcq - earlier.LockAcq,
		PTWalks:         s.PTWalks - earlier.PTWalks,
		RemoteLockAcq:   s.RemoteLockAcq - earlier.RemoteLockAcq,
		RemoteIPIs:      s.RemoteIPIs - earlier.RemoteIPIs,
		RemoteMemCycles: s.RemoteMemCycles - earlier.RemoteMemCycles,
	}
}

// Topology describes the machine's socket layout: Sockets packages, each
// holding CPUsPerSocket consecutive CPU ids.  The default topology is one
// socket spanning every CPU, under which every remote-cost path is
// unreachable and the machine behaves exactly as before sockets existed.
type Topology struct {
	Sockets       int
	CPUsPerSocket int
}

// SocketOf returns the socket housing the given CPU id.
func (t Topology) SocketOf(cpu int) int {
	if t.Sockets <= 1 || t.CPUsPerSocket <= 0 {
		return 0
	}
	s := cpu / t.CPUsPerSocket
	if s >= t.Sockets {
		s = t.Sockets - 1
	}
	return s
}

// Machine is one simulated multiprocessor.
type Machine struct {
	Plat arch.Platform
	Phys *vm.PhysMem
	cpus []*CPU
	// sdq holds one batched-shootdown queue per CPU; sdBatch is the
	// queue depth that forces a flush (0 means DefaultShootdownBatch).
	sdq     []*shootdownQueue
	sdBatch atomic.Int64

	// topo is the socket layout; the zero value means one socket over all
	// CPUs (SetTopology installs multi-socket layouts).
	topo Topology

	counters Counters
}

// NewMachine builds a machine for the given platform with frames pages of
// one-socket physical memory.  backed selects whether pages carry real
// storage.
func NewMachine(p arch.Platform, frames int, backed bool) *Machine {
	return NewMachineWithPhys(p, vm.NewPhysMem(frames, backed))
}

// NewMachineWithPhys builds a machine over a caller-constructed physical
// memory pool — how the kernel boots a multi-socket pool
// (vm.NewPhysMemNUMA).
func NewMachineWithPhys(p arch.Platform, phys *vm.PhysMem) *Machine {
	if p.NumCPUs <= 0 || p.NumCPUs > MaxCPUs {
		panic(fmt.Sprintf("smp: invalid CPU count %d", p.NumCPUs))
	}
	m := &Machine{
		Plat: p,
		Phys: phys,
		cpus: make([]*CPU, p.NumCPUs),
		sdq:  make([]*shootdownQueue, p.NumCPUs),
	}
	for i := range m.sdq {
		m.sdq[i] = &shootdownQueue{}
	}
	coreOf := make(map[int]int, p.NumCPUs)
	for core, members := range p.Cores {
		for _, id := range members {
			coreOf[id] = core
		}
	}
	for i := range m.cpus {
		m.cpus[i] = &CPU{
			ID:       i,
			Core:     coreOf[i],
			tlb:      tlb.New(p.TLBEntries),
			pteCache: newLineCache(p.PTECacheLines),
		}
	}
	return m
}

// NumCPUs returns the number of virtual CPUs.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// SetTopology partitions the machine's CPUs into sockets of consecutive
// ids.  sockets must divide the CPU count; sockets <= 1 restores the flat
// single-package layout.  It must be called before any work runs (kernel
// boot does), not concurrently with charging.
func (m *Machine) SetTopology(sockets int) {
	if sockets <= 1 {
		m.topo = Topology{Sockets: 1, CPUsPerSocket: len(m.cpus)}
		return
	}
	if len(m.cpus)%sockets != 0 {
		panic(fmt.Sprintf("smp: %d CPUs do not divide into %d sockets", len(m.cpus), sockets))
	}
	m.topo = Topology{Sockets: sockets, CPUsPerSocket: len(m.cpus) / sockets}
}

// Topology returns the machine's socket layout.
func (m *Machine) Topology() Topology {
	if m.topo.Sockets <= 0 {
		return Topology{Sockets: 1, CPUsPerSocket: len(m.cpus)}
	}
	return m.topo
}

// Sockets returns the number of sockets (1 on the default flat layout).
func (m *Machine) Sockets() int {
	if m.topo.Sockets <= 1 {
		return 1
	}
	return m.topo.Sockets
}

// SocketOf returns the socket housing the given CPU id.
func (m *Machine) SocketOf(cpu int) int { return m.topo.SocketOf(cpu) }

// CPU returns the virtual CPU with the given id.
func (m *Machine) CPU(id int) *CPU { return m.cpus[id] }

// AllCPUs returns the set of every virtual CPU.
func (m *Machine) AllCPUs() CPUSet { return AllCPUs(len(m.cpus)) }

// Counters exposes the machine-wide coherence event counters.
func (m *Machine) Counters() *Counters { return &m.counters }

// SnapshotCounters copies the coherence counters.
func (m *Machine) SnapshotCounters() Snapshot {
	return Snapshot{
		LocalInv:        m.counters.LocalInv.Load(),
		RemoteInvIssued: m.counters.RemoteInvIssued.Load(),
		IPIsDelivered:   m.counters.IPIsDelivered.Load(),
		FullFlushes:     m.counters.FullFlushes.Load(),
		HandlerCycles:   m.counters.HandlerCycles.Load(),
		BatchedFlushes:  m.counters.BatchedFlushes.Load(),
		BatchedInv:      m.counters.BatchedInv.Load(),
		LockAcq:         m.counters.LockAcq.Load(),
		PTWalks:         m.counters.PTWalks.Load(),
		RemoteLockAcq:   m.counters.RemoteLockAcq.Load(),
		RemoteIPIs:      m.counters.RemoteIPIs.Load(),
		RemoteMemCycles: m.counters.RemoteMemCycles.Load(),
	}
}

// ResetCounters zeroes coherence counters and per-CPU cycle counters;
// experiment harnesses call it between runs.
func (m *Machine) ResetCounters() {
	m.counters.LocalInv.Store(0)
	m.counters.RemoteInvIssued.Store(0)
	m.counters.IPIsDelivered.Store(0)
	m.counters.FullFlushes.Store(0)
	m.counters.HandlerCycles.Store(0)
	m.counters.BatchedFlushes.Store(0)
	m.counters.BatchedInv.Store(0)
	m.counters.LockAcq.Store(0)
	m.counters.PTWalks.Store(0)
	m.counters.RemoteLockAcq.Store(0)
	m.counters.RemoteIPIs.Store(0)
	m.counters.RemoteMemCycles.Store(0)
	for _, c := range m.cpus {
		c.cycles.Store(0)
	}
}

// TotalCycles sums cycles consumed across every CPU.  It is the elapsed
// time of a serialized workload — one whose logical threads hand off to
// each other (pipe writer/reader ping-pong, dd, PostMark, netperf) so that
// CPU work never overlaps in wall-clock time.
func (m *Machine) TotalCycles() cycles.Cycles {
	var t cycles.Cycles
	for _, c := range m.cpus {
		t += c.Cycles()
	}
	return t
}

// ParallelCycles estimates the elapsed cycles of a workload whose threads
// run concurrently (the web server).  Each physical core's elapsed time is
// the sum of its SMT siblings' cycles divided by the platform's SMT speedup
// when more than one sibling did work; the machine's elapsed time is the
// busiest core's.
func (m *Machine) ParallelCycles() cycles.Cycles {
	var busiest float64
	for _, members := range m.Plat.Cores {
		var sum float64
		busySiblings := 0
		for _, id := range members {
			cy := float64(m.cpus[id].Cycles())
			sum += cy
			if cy > 0 {
				busySiblings++
			}
		}
		if busySiblings > 1 && m.Plat.SMTSpeedup > 0 {
			sum /= m.Plat.SMTSpeedup
		}
		if sum > busiest {
			busiest = sum
		}
	}
	return cycles.Cycles(busiest)
}

// Context is a kernel thread of control pinned to one virtual CPU.  All
// simulated kernel work flows through a Context so that costs land on the
// right CPU and CPU-private mappings have a well-defined owner.
type Context struct {
	m   *Machine
	cpu *CPU
	// interrupted models signal delivery for interruptible sleeps
	// (the sf_buf_alloc "catch" flag).
	interrupted atomic.Bool
}

// Ctx returns a context executing on the given CPU.
func (m *Machine) Ctx(cpu int) *Context {
	return &Context{m: m, cpu: m.cpus[cpu]}
}

// Machine returns the context's machine.
func (c *Context) Machine() *Machine { return c.m }

// CPU returns the CPU the context runs on.
func (c *Context) CPU() *CPU { return c.cpu }

// CPUID returns the id of the CPU the context runs on.
func (c *Context) CPUID() int { return c.cpu.ID }

// Cost returns the platform cost model.
func (c *Context) Cost() *arch.CostModel { return &c.m.Plat.Cost }

// Charge adds cy cycles to the context's CPU.
func (c *Context) Charge(cy cycles.Cycles) { c.cpu.cycles.Add(int64(cy)) }

// ChargeBytes charges a fractional per-byte cost over n bytes.
func (c *Context) ChargeBytes(perByte float64, n int) {
	c.Charge(cycles.PerByte(perByte, n))
}

// Socket returns the socket of the CPU the context runs on.
func (c *Context) Socket() int { return c.m.topo.SocketOf(c.cpu.ID) }

// ChargeBytesAt is ChargeBytes for traffic against a physical frame: when
// the frame's home socket differs from the executing CPU's, the platform's
// RemoteMemPerByte surcharge is charged on top and accumulated in
// Counters.RemoteMemCycles.  On a one-socket topology it is exactly
// ChargeBytes.
func (c *Context) ChargeBytesAt(perByte float64, n int, frame uint64) {
	c.Charge(cycles.PerByte(perByte, n))
	if c.m.topo.Sockets > 1 && c.m.Phys.SocketOfFrame(frame) != c.Socket() {
		extra := cycles.PerByte(c.m.Plat.Cost.RemoteMemPerByte, n)
		c.Charge(extra)
		c.m.counters.RemoteMemCycles.Add(int64(extra))
	}
}

// ChargeLock charges one uncontended lock round trip on multiprocessor
// kernels; uniprocessor kernels skip synchronization entirely, which is
// why Xeon-UP outruns the other Xeons on single-threaded benchmarks.
func (c *Context) ChargeLock() {
	if c.m.Plat.MPKernel {
		c.Charge(c.m.Plat.Cost.LockUncontended)
		c.m.counters.LockAcq.Add(1)
	}
}

// ChargeLockAt is ChargeLock for a lock homed on a specific socket: when
// the home differs from the acquiring CPU's socket the platform's
// RemoteLockExtra surcharge (the cross-package cache-line transfer) is
// charged on top and the acquisition counted in Counters.RemoteLockAcq.
// home < 0 marks a socket-agnostic lock and always charges locally; on a
// one-socket topology every home is local, so the method degenerates to
// ChargeLock exactly.
func (c *Context) ChargeLockAt(home int) {
	if !c.m.Plat.MPKernel {
		return
	}
	c.Charge(c.m.Plat.Cost.LockUncontended)
	c.m.counters.LockAcq.Add(1)
	if home >= 0 && c.m.topo.Sockets > 1 && home != c.Socket() {
		c.Charge(c.m.Plat.Cost.RemoteLockExtra)
		c.m.counters.RemoteLockAcq.Add(1)
	}
}

// ChargeWalk charges one page-table walk and counts it in PTWalks.  The
// single-page Translate path pays one walk per TLB miss; TranslateRun
// pays one walk per contiguous PTE run, which is the whole point of the
// ranged translate.
func (c *Context) ChargeWalk() {
	c.Charge(c.m.Plat.Cost.TLBMissWalk)
	c.m.counters.PTWalks.Add(1)
}

// Interrupt marks the context as having a pending signal; an interruptible
// sleep observing it aborts (sf_buf_alloc returns NULL under "catch").
func (c *Context) Interrupt() { c.interrupted.Store(true) }

// Interrupted reports and clears the pending-signal flag.
func (c *Context) Interrupted() bool {
	return c.interrupted.Swap(false)
}

// InterruptPending reports the flag without clearing it.
func (c *Context) InterruptPending() bool { return c.interrupted.Load() }
