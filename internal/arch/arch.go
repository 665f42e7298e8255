// Package arch describes the simulated processor architectures and the five
// experimental platforms of the paper's evaluation (Section 6.1).
//
// An architecture fixes the machine-dependent cost model: how expensive a
// local TLB invalidation is, what an interprocessor interrupt costs, how
// fast the CPU copies memory.  A platform combines an architecture with a
// processor topology (physical cores, SMT siblings), a clock frequency, and
// the kind of kernel it runs (uniprocessor vs multiprocessor).
//
// The headline cost numbers are the paper's own Section 3 measurements:
//
//	Xeon (i386, 2.4 GHz):    local invlpg ~500 cycles (PTE in d-cache),
//	                         ~1000 cycles otherwise; remote shootdown wait
//	                         ~4,000 cycles (SMT sibling) to ~13,500 cycles
//	                         (2 packages x 2 threads).
//	Opteron (amd64, 1.6 GHz): local ~95/320 cycles, remote ~2,030 cycles.
//
// Costs that the paper does not report directly (allocator path lengths,
// copy bandwidth, per-packet protocol costs) are calibration constants,
// chosen so the simulated baselines land near the paper's absolute numbers;
// see EXPERIMENTS.md for the calibration discussion.
package arch

import (
	"fmt"

	"sfbuf/internal/cycles"
)

// ID identifies a simulated processor architecture.
type ID int

// The architectures the paper measures (Sections 4.2 and 4.3).  Section
// 4.4's color-constrained hybrid is not reproduced; docs/ARCHITECTURE.md
// says why.
const (
	// I386 is the 32-bit x86 architecture: kernel virtual address space
	// is scarce, so ephemeral mappings go through a mapping cache.
	I386 ID = iota
	// AMD64 is the 64-bit x86 architecture: the entire physical memory is
	// permanently direct-mapped, making ephemeral mappings free.
	AMD64
)

// String returns the conventional lower-case architecture name.
func (a ID) String() string {
	switch a {
	case I386:
		return "i386"
	case AMD64:
		return "amd64"
	}
	return "unknown"
}

// CostModel carries the per-architecture operation costs, in CPU cycles.
// Per-byte costs are fractional cycles per byte.
type CostModel struct {
	// LocalInvCachedPTE is the cost of invlpg when the PTE is resident in
	// the data cache (paper Section 3: ~500 Xeon, ~95 Opteron).
	LocalInvCachedPTE cycles.Cycles
	// LocalInvUncachedPTE is the cost of invlpg when the PTE must be
	// fetched from memory (~1000 Xeon, ~320 Opteron).
	LocalInvUncachedPTE cycles.Cycles
	// IPIHandler is the cost charged to each CPU that receives a TLB
	// shootdown interrupt: interrupt entry/exit plus the invalidation.
	IPIHandler cycles.Cycles
	// RangedShootdownPerPage is the initiator's additional wait per page
	// of a ranged shootdown (the remote handler invalidates n pages per
	// interrupt instead of one page per interrupt).
	RangedShootdownPerPage cycles.Cycles
	// TLBMissWalk is the page-table walk cost on a TLB miss.
	TLBMissWalk cycles.Cycles
	// PTEWrite is the cost of writing a page-table entry.
	PTEWrite cycles.Cycles
	// CopyPerByte is the kernel memory-copy cost, cycles per byte.
	CopyPerByte float64
	// ChecksumPerByte is the software TCP checksum cost, cycles per byte.
	ChecksumPerByte float64
	// KVAAlloc and KVAFree are the costs of the general-purpose kernel
	// virtual-address allocator used by the original kernel for every
	// ephemeral mapping (lock acquisition, free-list manipulation).
	KVAAlloc cycles.Cycles
	KVAFree  cycles.Cycles
	// MapperOp is the bookkeeping cost of an sf_buf_alloc/free pair's
	// fast path: a hash lookup, a reference count update.
	MapperOp cycles.Cycles
	// LockUncontended is the cost of an uncontended kernel mutex
	// acquire/release pair; charged only by multiprocessor kernels.
	LockUncontended cycles.Cycles
	// PacketFixed is the sender's fixed per-packet cost: tcp_output,
	// IP header construction, segment bookkeeping, driver enqueue.
	PacketFixed cycles.Cycles
	// PacketRecv is the receiver's fixed per-packet cost: tcp_input,
	// reassembly bookkeeping, socket wakeups.
	PacketRecv cycles.Cycles
	// AckProcess is the sender-side cost of processing one returning
	// acknowledgment (freeing the covered mbufs).
	AckProcess cycles.Cycles
	// VFSOpFixed is the fixed cost of one name-based filesystem
	// operation: namei, VFS locking, vnode management.
	VFSOpFixed cycles.Cycles
	// HTTPRequestFixed is the per-request web server cost outside data
	// movement: accept/parse/log in user space plus socket setup.
	HTTPRequestFixed cycles.Cycles
	// PageWire is the cost of wiring or unwiring a physical page
	// (disabling/enabling replacement or page-out).
	PageWire cycles.Cycles
	// Syscall is the fixed user/kernel crossing cost.
	Syscall cycles.Cycles
	// BioFixed is the fixed cost of one block-device request through the
	// disk driver path: bio setup, GEOM traversal and the handoff to and
	// from the memory disk's worker thread.  Both kernels pay it; it is
	// why disk-dump gains (Figures 4 and 6) are smaller than pipe gains.
	BioFixed cycles.Cycles
	// RemoteLockExtra is the surcharge on LockUncontended when the lock's
	// cache line is homed on another socket: the acquire must pull the
	// line across the package interconnect.  Charged only on multi-socket
	// topologies (smp.Context.ChargeLockAt).
	RemoteLockExtra cycles.Cycles
	// RemoteIPIExtra is the initiator's additional wait per shootdown
	// target on another socket: a cross-package interrupt is delivered
	// over the interconnect, not the shared APIC bus.
	RemoteIPIExtra cycles.Cycles
	// RemoteMemPerByte is the per-byte surcharge for copies, zeroing, and
	// checksums against a frame homed on another socket (the NUMA remote
	// access penalty), on top of CopyPerByte/ChecksumPerByte.
	RemoteMemPerByte float64
	// SlowMemPerByte is the per-byte surcharge for copies, zeroing, and
	// checksums against a frame resident in the slow physical-memory tier
	// (far DRAM, CXL-attached or persistent memory), on top of
	// CopyPerByte/ChecksumPerByte.  Charged only when the machine's pool
	// is tiered (smp.Context.ChargeBytesAt); composes with the NUMA
	// surcharge when the slow frame is also remote.
	SlowMemPerByte float64
}

// xeonCosts is the i386 cost model, seeded from the paper's Xeon numbers.
func xeonCosts() CostModel {
	return CostModel{
		LocalInvCachedPTE:      500,
		LocalInvUncachedPTE:    1000,
		IPIHandler:             1500,
		RangedShootdownPerPage: 250,
		TLBMissWalk:            180,
		PTEWrite:               60,
		CopyPerByte:            1.30,
		ChecksumPerByte:        0.90,
		KVAAlloc:               2400,
		KVAFree:                1100,
		MapperOp:               140,
		LockUncontended:        120,
		PacketFixed:            22000,
		PacketRecv:             20000,
		AckProcess:             3500,
		VFSOpFixed:             30000,
		HTTPRequestFixed:       120000,
		PageWire:               180,
		Syscall:                1100,
		BioFixed:               52000,
		RemoteLockExtra:        280,
		RemoteIPIExtra:         2500,
		RemoteMemPerByte:       0.65,
		SlowMemPerByte:         1.95,
	}
}

// opteronCosts is the amd64 cost model, seeded from the paper's Opteron
// numbers.  The Opteron runs at a lower clock but has a shorter pipeline
// and an on-die memory controller, so per-operation cycle counts are lower.
func opteronCosts() CostModel {
	return CostModel{
		LocalInvCachedPTE:      95,
		LocalInvUncachedPTE:    320,
		IPIHandler:             800,
		RangedShootdownPerPage: 60,
		TLBMissWalk:            90,
		PTEWrite:               35,
		CopyPerByte:            0.62,
		ChecksumPerByte:        0.45,
		KVAAlloc:               900,
		KVAFree:                450,
		MapperOp:               70,
		LockUncontended:        70,
		PacketFixed:            11000,
		PacketRecv:             10000,
		AckProcess:             1800,
		VFSOpFixed:             15000,
		HTTPRequestFixed:       60000,
		PageWire:               90,
		Syscall:                600,
		BioFixed:               22000,
		RemoteLockExtra:        120,
		RemoteIPIExtra:         700,
		RemoteMemPerByte:       0.28,
		SlowMemPerByte:         0.84,
	}
}

// Platform is one of the evaluation machines of Section 6.1.
type Platform struct {
	// Name is the paper's platform name, e.g. "Xeon-MP-HTT".
	Name string
	// Arch selects the machine-dependent sf_buf implementation.
	Arch ID
	// FreqGHz is the processor clock.
	FreqGHz cycles.GHz
	// NumCPUs is the number of virtual processors visible to the kernel.
	NumCPUs int
	// Cores groups virtual CPU ids by physical core; SMT siblings share
	// a core and therefore share execution bandwidth.
	Cores [][]int
	// MPKernel reports whether the kernel is compiled for
	// multiprocessors; MP kernels pay lock overhead even on one CPU
	// and must perform TLB shootdowns.
	MPKernel bool
	// RemoteShootdownWait is the number of cycles the initiating CPU
	// waits for a remote TLB shootdown to complete, from the paper's
	// Section 3 measurements.  Zero when the platform has no remote CPUs.
	RemoteShootdownWait cycles.Cycles
	// SMTSpeedup is the combined throughput of one physical core with
	// all SMT siblings busy, relative to a single thread (e.g. 1.25
	// means two hyperthreads deliver 25% more than one).
	SMTSpeedup float64
	// Cost is the architecture's operation cost model.
	Cost CostModel
	// TLBEntries is the modeled per-CPU data-TLB capacity.
	TLBEntries int
	// PTECacheLines is the modeled per-CPU capacity, in 64-byte lines,
	// of the portion of the data cache that holds page-table entries.
	// It decides whether an invalidation pays the cached or uncached
	// PTE cost.
	PTECacheLines int
}

// AllCPUSet returns a bitmask with one bit set per virtual CPU.
func (p Platform) AllCPUSet() uint64 {
	return (uint64(1) << uint(p.NumCPUs)) - 1
}

// XeonUP is the 2.4 GHz Pentium Xeon running a uniprocessor kernel:
// one physical, one virtual CPU; no TLB coherence traffic at all.
func XeonUP() Platform {
	return Platform{
		Name:          "Xeon-UP",
		Arch:          I386,
		FreqGHz:       2.4,
		NumCPUs:       1,
		Cores:         [][]int{{0}},
		MPKernel:      false,
		SMTSpeedup:    1.0,
		Cost:          xeonCosts(),
		TLBEntries:    64,
		PTECacheLines: 2048,
	}
}

// XeonHTT is the same Xeon with hyper-threading enabled: two virtual CPUs
// on one physical processor.  Even this single-package machine must run TLB
// shootdowns (the paper's observation that SMT brought TLB coherence to
// uniprocessor systems).  Remote shootdown wait: ~4,000 cycles.
func XeonHTT() Platform {
	p := XeonUP()
	p.Name = "Xeon-HTT"
	p.NumCPUs = 2
	p.Cores = [][]int{{0, 1}}
	p.MPKernel = true
	p.RemoteShootdownWait = 4000
	p.SMTSpeedup = 1.25
	return p
}

// XeonMP has two physical processors with hyper-threading disabled.
// The paper does not report this platform's shootdown wait directly; we
// place it between the single-package (4,000) and the four-thread
// (13,500) numbers — a cross-package IPI is slower than a sibling-thread
// IPI but only one target must respond — calibrated so the pipe
// experiment reproduces the paper's +168% (see EXPERIMENTS.md).
func XeonMP() Platform {
	p := XeonUP()
	p.Name = "Xeon-MP"
	p.NumCPUs = 2
	p.Cores = [][]int{{0}, {1}}
	p.MPKernel = true
	p.RemoteShootdownWait = 6600
	p.SMTSpeedup = 1.0
	return p
}

// XeonMPHTT has two physical processors, each with hyper-threading: four
// virtual CPUs.  Remote shootdown wait: ~13,500 cycles (Section 3).
func XeonMPHTT() Platform {
	p := XeonUP()
	p.Name = "Xeon-MP-HTT"
	p.NumCPUs = 4
	p.Cores = [][]int{{0, 1}, {2, 3}}
	p.MPKernel = true
	p.RemoteShootdownWait = 13500
	p.SMTSpeedup = 1.25
	return p
}

// XeonNUMA is a parameterized multi-package Xeon: sockets packages of
// cpusPerSocket hyper-threaded virtual CPUs each, sharing the Xeon-MP-HTT
// cost model and its cross-package shootdown wait.  It exists for the
// NUMA-modeled experiments, which need 2- and 4-socket machines the
// paper's fixed evaluation set cannot express; pairing it with
// kernel.Config.Sockets = sockets makes the package boundaries visible to
// the cost model (remote locks, IPIs, and memory).  SMT siblings share a
// core, so Cores groups CPU ids in pairs when cpusPerSocket is even.
func XeonNUMA(sockets, cpusPerSocket int) Platform {
	if sockets < 1 {
		sockets = 1
	}
	if cpusPerSocket < 1 {
		cpusPerSocket = 1
	}
	n := sockets * cpusPerSocket
	p := XeonUP()
	p.Name = fmt.Sprintf("Xeon-NUMA-%dx%d", sockets, cpusPerSocket)
	p.NumCPUs = n
	p.MPKernel = true
	p.RemoteShootdownWait = 13500
	p.SMTSpeedup = 1.25
	p.Cores = nil
	for i := 0; i < n; {
		if cpusPerSocket%2 == 0 {
			p.Cores = append(p.Cores, []int{i, i + 1})
			i += 2
		} else {
			p.Cores = append(p.Cores, []int{i})
			i++
		}
	}
	return p
}

// OpteronMP is the dual-processor 1.6 GHz Opteron model 242 (amd64).
// Remote shootdown wait: ~2,030 cycles (Section 3).
func OpteronMP() Platform {
	return Platform{
		Name:                "Opteron-MP",
		Arch:                AMD64,
		FreqGHz:             1.6,
		NumCPUs:             2,
		Cores:               [][]int{{0}, {1}},
		MPKernel:            true,
		RemoteShootdownWait: 2030,
		SMTSpeedup:          1.0,
		Cost:                opteronCosts(),
		TLBEntries:          64,
		PTECacheLines:       2048,
	}
}

// Evaluation returns the five platforms of the paper's evaluation, in the
// order the figures present them.
func Evaluation() []Platform {
	return []Platform{XeonUP(), XeonHTT(), XeonMP(), XeonMPHTT(), OpteronMP()}
}
