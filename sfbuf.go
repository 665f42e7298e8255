// Package sfbuf is a simulation-backed reproduction of "A Portable Kernel
// Abstraction for Low-Overhead Ephemeral Mapping Management" (Elmeleegy,
// Chanda, Cox, Zwaenepoel; USENIX ATC 2005): the sf_buf ephemeral mapping
// interface, its machine-dependent implementations, the original-kernel
// baseline, every kernel subsystem the paper converts, and the full
// evaluation suite.
//
// The package is a facade over the internal packages, exposing the pieces
// a downstream user needs:
//
//   - Boot a simulated kernel for one of the paper's five platforms,
//     running either the sf_buf kernel or the original kernel.
//   - Allocate and free ephemeral mappings through the Table-1 interface.
//   - Drive the converted subsystems: pipes, memory disks, a filesystem,
//     zero-copy sockets, sendfile, ptrace and execve.
//   - Run the paper's experiments and regenerate its figures.
//
// Quick start:
//
//	k := sfbuf.MustBoot(sfbuf.Config{
//		Platform: sfbuf.XeonMP(),
//		Mapper:   sfbuf.SFBufKernel,
//		Backed:   true,
//	})
//	ctx := k.Ctx(0)
//	page, _ := k.M.Phys.Alloc()
//	b, _ := k.Map.Alloc(ctx, page, sfbuf.Private)
//	// ... use b.KVA() through kcopy, then:
//	k.Map.Free(ctx, b)
package sfbuf

import (
	"sfbuf/internal/arch"
	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Core ephemeral-mapping types (Table 1 of the paper).
type (
	// Buf is an ephemeral mapping object (an sf_buf): KVA() returns its
	// kernel virtual address, Page() its physical page.
	Buf = sfbuf.Buf
	// Flags modify Alloc behaviour: Private, NoWait, Catch.
	Flags = sfbuf.Flags
	// Mapper is the ephemeral mapping interface: the four Table-1
	// functions plus the vectored AllocBatch/FreeBatch calls.
	Mapper = sfbuf.Mapper
	// MapperStats reports mapping-cache behaviour.
	MapperStats = sfbuf.Stats
	// Run is a contiguous multi-page ephemeral mapping: one VA window
	// (when the engine provides contiguity) released as a unit through
	// FreeRun, readable under ranged translation.
	Run = sfbuf.Run
	// RunWindowStats counts the sharded engine's run-window pool events
	// (reservations, reuses, page-set revives, laundering rounds) and
	// reports its live capacity gauges (clean vs parked pages, largest
	// free arena run).
	RunWindowStats = sfbuf.RunWindowStats
	// DaemonStats counts the background reclaim-and-laundering daemon's
	// activity (idle passes, watermark refill rounds, age-triggered
	// window laundering, clean-window trims), reported by
	// Kernel.DaemonStats.  The daemon is switched by Config.Daemon and
	// driven by Kernel.Idle.
	DaemonStats = sfbuf.DaemonStats
)

// Alloc flags (Section 4.1).
const (
	// Private marks a mapping for the exclusive use of the calling
	// thread, letting implementations skip remote TLB invalidations.
	Private = sfbuf.Private
	// NoWait forbids sleeping when no buffer is available.
	NoWait = sfbuf.NoWait
	// Catch makes the sleep interruptible by a signal.
	Catch = sfbuf.Catch
)

// Alloc errors.
var (
	// ErrWouldBlock is Alloc's NoWait failure.
	ErrWouldBlock = sfbuf.ErrWouldBlock
	// ErrInterrupted is Alloc's interrupted-sleep failure.
	ErrInterrupted = sfbuf.ErrInterrupted
	// ErrBatchTooLarge is Mapper.AllocBatch's and AllocRun's
	// over-capacity failure.  Consumers never see it: MapExtent answers
	// a window wider than the cache with a per-page extent.
	ErrBatchTooLarge = sfbuf.ErrBatchTooLarge
)

// NativeBatch reports whether a mapper's vectored calls amortize work
// across the run (sharded cache, amd64 direct map, original kernel)
// rather than looping over the single-page calls (the paper's
// global-lock cache).
func NativeBatch(m Mapper) bool { return sfbuf.NativeBatch(m) }

// NativeRun reports whether a mapper's AllocRun provides genuinely
// contiguous windows (sharded cache, amd64 direct map) rather than a
// scattered fallback.  The original kernel reports false: it is the
// figures' baseline, and Run.Contiguous reports its 64-bit pmap_qenter
// ranges per run.
func NativeRun(m Mapper) bool { return sfbuf.NativeRun(m) }

// Kernel assembly.
type (
	// Config describes the kernel to boot: platform, mapper kind,
	// physical memory, mapping-cache size.
	Config = kernel.Config
	// Kernel is a booted simulated kernel.
	Kernel = kernel.Kernel
	// MapperKind selects the sf_buf kernel or the original kernel.
	MapperKind = kernel.MapperKind
	// CachePolicy selects the mapping-cache engine: the sharded per-CPU
	// design with batched shootdowns (default) or the paper's
	// global-lock cache.
	CachePolicy = kernel.CachePolicy
	// Tri is a policy switch (Config.Contig, Daemon, Homing):
	// Auto lets Boot decide, On and Off override.
	// Boot resolves every switch once into Kernel.Plan.
	Tri = kernel.Tri
	// MapConsumer is a subsystem's contiguity-policy handle: static under
	// pinned policies, self-tuning per window-size epoch under the
	// adaptive one.
	MapConsumer = kernel.MapConsumer
	// Extent is one window a consumer handle mapped as a contiguous run,
	// a vectored batch, or page by page (MapConsumer.MapExtent): copy
	// through it with CopyIn/CopyOut, release it with Unmap.
	Extent = kernel.Extent
	// PolicyStats snapshots one consumer's adaptive-policy state
	// (mode, reuse EWMAs, flips) as reported by Kernel.PolicyStats.
	PolicyStats = kernel.PolicyStats
	// PolicyClassStats is one window-size class within PolicyStats.
	PolicyClassStats = kernel.PolicyClassStats
	// Context is a kernel thread of control pinned to a virtual CPU.
	Context = smp.Context
	// Platform describes one of the evaluation machines.
	Platform = arch.Platform
	// Page is a physical page (the vm_page).
	Page = vm.Page
	// UserMem is a user-space buffer backed by physical pages.
	UserMem = vm.UserMem
	// PhysStats is the frame allocator's fragmentation snapshot (free
	// blocks per order, largest contiguous free extent, split/coalesce
	// counts), reported by Kernel.PhysStats.
	PhysStats = vm.PhysStats
)

// Kernel variants.
const (
	// SFBufKernel boots the paper's kernel with the architecture's
	// sf_buf implementation.
	SFBufKernel = kernel.SFBuf
	// OriginalKernel boots the baseline: fresh virtual address per
	// mapping, global TLB invalidation per unmapping.
	OriginalKernel = kernel.OriginalKernel
)

// Mapping-cache engines (Config.Cache).
const (
	// CacheSharded is the default: lock-striped shards, per-CPU clean
	// freelists, and teardown shootdowns batched into ranged IPI rounds.
	CacheSharded = kernel.CacheSharded
	// CacheGlobal is the paper's Section 4.2 single-lock cache, used by
	// the figure-reproduction experiments.
	CacheGlobal = kernel.CacheGlobal
)

// Policy switch positions (Tri).
const (
	// Auto is the default: Boot decides from the machine and the engine.
	Auto = kernel.Auto
	// On forces the policy wherever the engine can honour it.
	On = kernel.On
	// Off disables it (the ablation and baseline arms).
	Off = kernel.Off
)

// ErrNoContig is AllocContig's failure: no aligned physically contiguous
// extent of the requested size is currently free.
var ErrNoContig = vm.ErrNoContig

// PageSize is the simulated machine's page size in bytes.
const PageSize = vm.PageSize

// MaxContigPages is the widest physically contiguous extent one
// AllocContig call can return.
const MaxContigPages = vm.MaxContigPages

// Boot constructs a simulated kernel per the configuration.
func Boot(cfg Config) (*Kernel, error) { return kernel.Boot(cfg) }

// MustBoot is Boot, panicking on error.
func MustBoot(cfg Config) *Kernel { return kernel.MustBoot(cfg) }

// AllocUserMem allocates a page-backed user buffer on kernel k.
func AllocUserMem(k *Kernel, size int) (*UserMem, error) {
	return vm.AllocUserMem(k.M.Phys, size)
}

// The paper's evaluation platforms (Section 6.1), plus the multi-socket
// NUMA extrapolation used by the scale and numa experiments.
var (
	XeonUP    = arch.XeonUP
	XeonHTT   = arch.XeonHTT
	XeonMP    = arch.XeonMP
	XeonMPHTT = arch.XeonMPHTT
	OpteronMP = arch.OpteronMP
	// XeonNUMA builds a multi-package Xeon with asymmetric cross-socket
	// costs; boot it with Config.Sockets set to the same socket count.
	XeonNUMA = arch.XeonNUMA
)

// EvaluationPlatforms returns the five platforms in figure order.
func EvaluationPlatforms() []Platform { return arch.Evaluation() }

// Experiment access: run any of the paper's figures programmatically.
type (
	// ExperimentOptions configures experiment runs (scale, platforms).
	ExperimentOptions = experiments.Options
	// ExperimentResult is one reproduced table or figure.
	ExperimentResult = experiments.Result
)

// Experiments returns the registered experiment ids in figure order.
func Experiments() []string { return experiments.IDs() }

// RunExperiment executes one experiment by id ("fig2", "sec3", ...).
func RunExperiment(id string, o ExperimentOptions) (*ExperimentResult, error) {
	r, ok := experiments.Get(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return r(o)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "sfbuf: unknown experiment " + string(e)
}

// DefaultExperimentOptions returns the paper-scale configuration.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }
