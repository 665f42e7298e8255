// Package kernel assembles a bootable simulated kernel: machine, physical
// memory, page tables, the kernel virtual-address arena, and an ephemeral
// mapping implementation — either the sf_buf kernel or the original
// kernel, selected by configuration exactly as the paper's evaluation
// boots one or the other.
package kernel

import (
	"fmt"
	"sync"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// MapperKind selects which ephemeral mapping management the kernel boots
// with.
type MapperKind int

const (
	// SFBuf is the paper's kernel: the architecture-appropriate sf_buf
	// implementation (i386 mapping cache, amd64 direct map).
	SFBuf MapperKind = iota
	// OriginalKernel is the baseline: fresh virtual address per mapping,
	// global invalidation per unmapping.
	OriginalKernel
)

// String names the kernel variant as the paper's figures label it.
func (k MapperKind) String() string {
	if k == SFBuf {
		return "sf_buf"
	}
	return "original"
}

// CachePolicy selects the concurrency engine behind the i386 mapping
// cache.  The Table-1 semantics are identical either way; the
// engines differ in locking granularity and in when TLB shootdowns are
// issued.
type CachePolicy int

const (
	// CacheSharded is the default: the hash table and inactive list are
	// split into lock-striped shards, each CPU keeps a freelist of clean
	// buffers it can allocate from without invalidations, and teardown
	// shootdowns are coalesced into one ranged IPI round per reclaim
	// batch.
	CacheSharded CachePolicy = iota
	// CacheGlobal is the paper's Section 4.2 design, byte-for-byte: one
	// mutex, lazy teardown, one shootdown round per shared reuse of an
	// accessed mapping.  The evaluation experiments pin this policy so
	// the reproduced figures keep matching the paper.
	CacheGlobal
)

// Config describes the kernel to boot.  Boot resolves it once into
// Kernel.Plan (see plan.go); each Tri switch's Auto is documented with
// the field.
type Config struct {
	// Platform is one of the Section 6.1 machines.
	Platform arch.Platform
	// Mapper selects sf_buf vs original ephemeral mapping management.
	Mapper MapperKind
	// PhysPages is the physical memory size in pages.  Zero defaults to
	// a comfortable 160 MB.
	PhysPages int
	// Backed selects real page storage (tests) vs cost-only pages
	// (large benchmarks).
	Backed bool
	// CacheEntries sizes the i386 mapping cache; zero means the paper's
	// 64K-entry default.  Ignored on amd64.
	CacheEntries int
	// Cache selects the mapping-cache engine: sharded (default) or the
	// paper's global-lock design.  Ignored on amd64 and by the original
	// kernel, which have no mapping cache.
	Cache CachePolicy
	// Contig selects whether multi-page I/O maps extents as contiguous
	// runs (AllocRun/FreeRun).  Auto resolves, on the sf_buf kernel's
	// engines with native contiguity, to the ADAPTIVE per-consumer policy
	// — each subsystem's MapConsumer handle flips between runs and
	// batches from its observed reuse, starting on the run path — and to
	// the historical static paths everywhere else.  On and Off force one
	// path for every consumer.
	Contig Tri
	// Daemon runs the background reclaim-and-laundering daemon on the idle
	// tick, refilling each CPU's clean freelist and the overflow pool.
	// Auto runs it on the sharded i386 cache; Off leaves reclaim
	// to allocation-miss shortage, the paper's behaviour.  The figure
	// engines (CacheGlobal, the original kernel) never run a daemon.
	Daemon Tri
	// Sockets models the machine as that many CPU packages: consecutive
	// CPU-id blocks become sockets, physical frames are homed on sockets
	// by address range, and cross-package lock acquisitions, IPI
	// deliveries, and memory traffic pay the platform's remote
	// multipliers (Counters.RemoteLockAcq / RemoteIPIs /
	// RemoteMemCycles).  The CPU count must divide evenly.  Zero or one
	// keeps the flat machine: every existing configuration, including the
	// figure-reproduction kernels, is bit-identical.
	Sockets int
	// Homing places the mapping state on a multi-socket machine: Auto
	// homes state per socket whenever Sockets > 1 on the sharded engine
	// (shards striped within the frame's home socket, per-CPU freelists
	// and pool sub-stocks per package, the daemon refilling from its own
	// socket); Off pins the flat hash-striped layout as the NUMA baseline
	// arm.  Run windows and the KVA arena stay flat either way.
	Homing Tri
}

// Kernel is one booted simulated kernel instance.
type Kernel struct {
	// Cfg is the configuration as booted, PhysPages default filled in.
	// Policy is read from Plan; editing Cfg after Boot changes nothing.
	Cfg   Config
	Plan  Plan
	M     *smp.Machine
	Pmap  *pmap.Pmap
	Arena *kva.Arena
	Map   sfbuf.Mapper

	// daemon is the background reclaim-and-laundering worker, nil unless
	// Plan.Daemon.
	daemon *sfbuf.Daemon

	// consumers is the registry of per-subsystem contiguity-policy
	// handles (see Consumer).
	consumersMu sync.Mutex
	consumers   map[string]*MapConsumer
}

// Boot resolves the configuration into a Plan, rejecting an invalid one,
// and constructs the machine and the planned mapping implementation.  The
// KVA arena is one flat first-fit map on every configuration; homing
// places frames and mapping-cache state, not virtual addresses.
func Boot(cfg Config) (*Kernel, error) {
	if cfg.PhysPages == 0 {
		cfg.PhysPages = 40960 // 160 MB
	}
	p, err := resolvePlan(cfg)
	if err != nil {
		return nil, err
	}
	phys := vm.NewPhysMemNUMA(cfg.PhysPages, cfg.Backed, p.Sockets)
	m := smp.NewMachineWithPhys(cfg.Platform, phys)
	m.SetTopology(p.Sockets)
	pm := pmap.New(m)

	var arena *kva.Arena
	if cfg.Platform.Arch == arch.I386 {
		arena = kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	} else {
		arena = kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
	}

	k := &Kernel{Cfg: cfg, Plan: p, M: m, Pmap: pm, Arena: arena}
	if k.Map, err = buildMapper(cfg, p, m, pm, arena); err != nil {
		return nil, err
	}
	k.Plan.readEngine(cfg, k.Map)
	order := 0
	for 1<<order < pmap.SuperpagePages {
		order++
	}
	phys.SetReservation(order, reservLowWater)
	// Background reclaim/laundering rides the idle tick.  The figure
	// engines never plan a daemon, and their experiments never call Idle,
	// so figure reproduction stays bit-identical.
	if p.Daemon {
		k.daemon = sfbuf.NewDaemon(k.Map, sfbuf.DaemonConfig{})
		m.RegisterIdleWork(k.daemon.Run)
	}
	return k, nil
}

func buildMapper(cfg Config, p Plan, m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (sfbuf.Mapper, error) {
	if cfg.Mapper == OriginalKernel {
		return sfbuf.NewOriginal(m, pm, arena), nil
	}
	shardCfg := sfbuf.ShardedConfig{Homed: p.Homed}
	switch cfg.Platform.Arch {
	case arch.I386:
		if cfg.Cache == CacheGlobal {
			return sfbuf.NewI386(m, pm, arena, p.MapCapacity)
		}
		return sfbuf.NewI386Sharded(m, pm, arena, p.MapCapacity, shardCfg)
	case arch.AMD64:
		return sfbuf.NewAMD64(m, pm), nil
	}
	return nil, fmt.Errorf("kernel: unknown architecture %v", cfg.Platform.Arch)
}

// MustBoot is Boot for tests and examples where failure is fatal.
func MustBoot(cfg Config) *Kernel {
	k, err := Boot(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// Ctx returns a kernel thread context on the given CPU.
func (k *Kernel) Ctx(cpu int) *smp.Context { return k.M.Ctx(cpu) }

// PhysStats snapshots the physical frame allocator's fragmentation
// picture: free blocks per buddy order, the largest contiguous free
// extent, split/coalesce counts.
func (k *Kernel) PhysStats() vm.PhysStats { return k.M.Phys.PhysStats() }

// PhysContigAlign is the frame-alignment hint for an n-page physically
// contiguous extent on this kernel.  Extents that can cover a superpage
// align to the superpage span, so an aligned run window over them
// promotes (and on amd64 they fall on the direct map's own 2 MB
// boundaries); smaller extents need no alignment beyond contiguity itself.
func (k *Kernel) PhysContigAlign(n int) int {
	if n >= pmap.SuperpagePages {
		return pmap.SuperpagePages
	}
	return 1
}

// AllocPhysContig allocates n physically contiguous frames with the
// kernel's alignment hint applied.  It fails with vm.ErrNoContig under
// unrecoverable fragmentation; callers that can use scattered pages fall
// back to AllocN.  A page's frame is fixed for life, so nothing moves
// pages to rebuild a covering block: contiguity recovers only as frees
// coalesce.
func (k *Kernel) AllocPhysContig(n int) ([]*vm.Page, error) {
	return k.M.Phys.AllocContig(n, k.PhysContigAlign(n))
}

// Idle models cpu being idle for dur simulated cycles.  If the background
// daemon is enabled it runs a maintenance pass on that CPU within the
// budget; either way the machine clock advances by at least dur, so
// age-bound laundering sees the lull.  Returns the cycles the daemon
// consumed.
func (k *Kernel) Idle(cpu int, dur cycles.Cycles) cycles.Cycles {
	return k.M.Idle(cpu, dur)
}

// DaemonEnabled reports whether the background reclaim daemon is wired to
// the machine's idle tick.
func (k *Kernel) DaemonEnabled() bool { return k.daemon != nil }

// DaemonStats reports cumulative background-daemon activity (zero value
// when no daemon runs).
func (k *Kernel) DaemonStats() sfbuf.DaemonStats {
	if k.daemon == nil {
		return sfbuf.DaemonStats{}
	}
	return k.daemon.Stats()
}

// Reset zeroes all machine counters and mapper statistics, preparing for a
// measured run.
func (k *Kernel) Reset() {
	k.M.ResetCounters()
	k.Map.ResetStats()
}

// Name describes the booted configuration, e.g. "Xeon-MP/sf_buf".
func (k *Kernel) Name() string {
	return k.Cfg.Platform.Name + "/" + k.Cfg.Mapper.String()
}
