package smp

// Socket-topology unit tests: the asymmetric cross-package cost model
// (ChargeLockAt, ChargeBytesAt, remote IPI surcharges) and the layout
// bookkeeping behind it.  The load-bearing property throughout is that a
// one-socket topology — set explicitly or left as the zero value — is
// bit-identical to the machine before sockets existed.

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/vm"
)

func numaMachine(t *testing.T, sockets, cpusPer, frames int) *Machine {
	t.Helper()
	phys := vm.NewPhysMemNUMA(frames, false, sockets)
	m := NewMachineWithPhys(arch.XeonNUMA(sockets, cpusPer), phys)
	m.SetTopology(sockets)
	return m
}

func TestTopologySocketOf(t *testing.T) {
	m := numaMachine(t, 2, 2, 64)
	topo := m.Topology()
	if topo.Sockets != 2 || topo.CPUsPerSocket != 2 {
		t.Fatalf("topology = %+v, want 2x2", topo)
	}
	for cpu, want := range []int{0, 0, 1, 1} {
		if got := topo.SocketOf(cpu); got != want {
			t.Errorf("SocketOf(%d) = %d, want %d", cpu, got, want)
		}
		if got := m.Ctx(cpu).Socket(); got != want {
			t.Errorf("Ctx(%d).Socket() = %d, want %d", cpu, got, want)
		}
	}
}

func TestTopologyZeroValueIsFlat(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	topo := m.Topology()
	if topo.Sockets != 1 || topo.CPUsPerSocket != m.NumCPUs() {
		t.Fatalf("default topology = %+v, want one socket over all CPUs", topo)
	}
	if m.Sockets() != 1 || m.SocketOf(m.NumCPUs()-1) != 0 {
		t.Fatal("flat machine must report one socket housing every CPU")
	}
}

func TestSetTopologyRejectsUnevenSplit(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false) // 4 CPUs
	defer func() {
		if recover() == nil {
			t.Fatal("SetTopology(3) over 4 CPUs should panic")
		}
	}()
	m.SetTopology(3)
}

// TestChargeLockAtRemote: a lock homed on another socket pays the base
// uncontended cost plus RemoteLockExtra and counts in RemoteLockAcq; a
// local or socket-agnostic home pays exactly ChargeLock.
func TestChargeLockAtRemote(t *testing.T) {
	m := numaMachine(t, 2, 2, 64)
	base := m.Plat.Cost.LockUncontended
	extra := m.Plat.Cost.RemoteLockExtra
	if extra <= 0 {
		t.Fatal("XeonNUMA must model a cross-package lock surcharge")
	}
	ctx := m.Ctx(0) // socket 0

	ctx.ChargeLockAt(0) // local home
	if got := m.CPU(0).Cycles(); got != base {
		t.Fatalf("local ChargeLockAt cost = %d, want %d", got, base)
	}
	ctx.ChargeLockAt(-1) // socket-agnostic
	if got := m.CPU(0).Cycles(); got != 2*base {
		t.Fatalf("agnostic ChargeLockAt cost = %d, want %d", got, 2*base)
	}
	ctx.ChargeLockAt(1) // remote home
	if got := m.CPU(0).Cycles(); got != 3*base+extra {
		t.Fatalf("remote ChargeLockAt cost = %d, want %d", got, 3*base+extra)
	}
	s := m.SnapshotCounters()
	if s.LockAcq != 3 || s.RemoteLockAcq != 1 {
		t.Fatalf("locks = %d remote = %d, want 3 and 1", s.LockAcq, s.RemoteLockAcq)
	}
}

// TestChargeLockAtFlatIdentity: on a one-socket machine ChargeLockAt is
// ChargeLock for every home value — the surcharge path is unreachable.
func TestChargeLockAtFlatIdentity(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx := m.Ctx(0)
	for _, home := range []int{-1, 0, 1, 7} {
		ctx.ChargeLockAt(home)
	}
	if got, want := m.TotalCycles(), 4*m.Plat.Cost.LockUncontended; got != want {
		t.Fatalf("flat ChargeLockAt total = %d, want %d", got, want)
	}
	if s := m.SnapshotCounters(); s.RemoteLockAcq != 0 {
		t.Fatalf("flat machine counted %d remote locks", s.RemoteLockAcq)
	}
}

// TestChargeBytesAtRemote: traffic against a frame homed on another
// socket pays RemoteMemPerByte on top, accumulated in RemoteMemCycles.
func TestChargeBytesAtRemote(t *testing.T) {
	m := numaMachine(t, 2, 2, 64)
	// Frame 1 is homed on socket 0, the last frame on socket 1.
	local := uint64(1)
	remote := uint64(63)
	if m.Phys.SocketOfFrame(local) != 0 || m.Phys.SocketOfFrame(remote) != 1 {
		t.Fatalf("frame homes = %d,%d, want 0,1",
			m.Phys.SocketOfFrame(local), m.Phys.SocketOfFrame(remote))
	}
	ctx := m.Ctx(0)
	const n = 1000
	perByte := 1.5
	ctx.ChargeBytesAt(perByte, n, local)
	localCost := m.CPU(0).Cycles()
	if want := cycles.PerByte(perByte, n); localCost != want {
		t.Fatalf("local ChargeBytesAt = %d, want %d", localCost, want)
	}
	ctx.ChargeBytesAt(perByte, n, remote)
	extra := cycles.PerByte(m.Plat.Cost.RemoteMemPerByte, n)
	if extra <= 0 {
		t.Fatal("XeonNUMA must model a cross-package memory surcharge")
	}
	if got, want := m.CPU(0).Cycles()-localCost, localCost+extra; got != want {
		t.Fatalf("remote ChargeBytesAt = %d, want %d", got, want)
	}
	if s := m.SnapshotCounters(); s.RemoteMemCycles != int64(extra) {
		t.Fatalf("RemoteMemCycles = %d, want %d", s.RemoteMemCycles, extra)
	}
}

// TestShootdownRemoteIPISurcharge: a shootdown whose targets span both
// sockets pays RemoteIPIExtra once per cross-package delivery and counts
// them in RemoteIPIs; a same-socket shootdown pays and counts nothing
// remote.
func TestShootdownRemoteIPISurcharge(t *testing.T) {
	m := numaMachine(t, 2, 2, 64)
	ctx := m.Ctx(0) // socket 0

	ctx.Shootdown(CPUSet(0).Set(1), 42) // sibling, same socket
	s := m.SnapshotCounters()
	if s.RemoteIPIs != 0 {
		t.Fatalf("same-socket shootdown counted %d remote IPIs", s.RemoteIPIs)
	}
	localCost := m.CPU(0).Cycles()

	m.ResetCounters()
	ctx.Shootdown(CPUSet(0).Set(2), 42) // socket 1
	s = m.SnapshotCounters()
	if s.RemoteIPIs != 1 {
		t.Fatalf("cross-socket shootdown counted %d remote IPIs, want 1", s.RemoteIPIs)
	}
	// ResetCounters zeroed the CPU clock, so the whole balance is this
	// one shootdown: the same-socket cost plus the package surcharge.
	if got, want := m.CPU(0).Cycles(), localCost+m.Plat.Cost.RemoteIPIExtra; got != want {
		t.Fatalf("cross-socket shootdown cost = %d, want %d (same-socket %d + surcharge %d)",
			got, want, localCost, m.Plat.Cost.RemoteIPIExtra)
	}

	// Ranged shootdowns pay the same per-delivery surcharge.
	m.ResetCounters()
	ctx.ShootdownRange(CPUSet(0).Set(1).Set(2).Set(3), []uint64{7, 8, 9})
	if s = m.SnapshotCounters(); s.RemoteIPIs != 2 {
		t.Fatalf("ranged shootdown counted %d remote IPIs, want 2 (cpus 2,3)", s.RemoteIPIs)
	}
}

// TestXeonNUMAPlatformShape: the NUMA constructor scales the CPU count
// with the socket grid and keeps SMT pairing within a package.
func TestXeonNUMAPlatformShape(t *testing.T) {
	p := arch.XeonNUMA(4, 2)
	if p.NumCPUs != 8 || !p.MPKernel {
		t.Fatalf("XeonNUMA(4,2) = %d CPUs MP=%v, want 8 MP CPUs", p.NumCPUs, p.MPKernel)
	}
	m := NewMachineWithPhys(p, vm.NewPhysMemNUMA(128, false, 4))
	m.SetTopology(4)
	for cpu := 0; cpu < 8; cpu++ {
		if got, want := m.SocketOf(cpu), cpu/2; got != want {
			t.Fatalf("SocketOf(%d) = %d, want %d", cpu, got, want)
		}
	}
}
