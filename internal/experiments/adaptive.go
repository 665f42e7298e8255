package experiments

// Adaptive-contiguity acceptance workloads.  The run path and the batch
// path have opposite sweet spots, and the two workloads here are the
// acceptance criteria's embodiment of each:
//
//   - "stream": a handful of large extents re-streamed cyclically, their
//     page total exceeding the mapping cache.  The batch path thrashes —
//     a cyclic sweep wider than the cache is the LRU worst case, every
//     page a miss paying install, walk and reclaim teardown — while the
//     run path revives each extent's parked window from the page-set
//     cache: no PTE writes, no walks, no shootdown debt.
//
//   - "churn": reuse-heavy churn over a small, hash-resident page set
//     with a sliding extent boundary.  The batch path is pure hash hits
//     (zero PTE writes, zero invalidations, TLB-resident translations)
//     while the run path installs a cold window every round — the extent
//     boundaries repeat too rarely for the page-set cache — and launders
//     the teardown debt.
//
// The adaptive policy must land within ~10% of the best static choice on
// BOTH, and beat the worst static choice by >= 2x on each, enforced by
// TestAdaptivePolicyEconomy and surfaced by BenchmarkAllocAdaptive.

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Canonical parameters of the adaptive acceptance workloads, shared by
// the benchmark and the economy test so they cannot drift apart.
const (
	// AdaptiveEntries sizes the mapping cache: large enough that four
	// CPUs can hold a streaming window each (4 x AdaptiveStreamLen = 128
	// claimed tokens) with headroom, small enough that the streaming
	// working set (AdaptiveStreamExtents x AdaptiveStreamLen = 192
	// pages) thrashes it.
	AdaptiveEntries = 160
	// AdaptiveStreamLen and AdaptiveStreamExtents shape the streaming
	// workload: extents few enough to stay within the run pool's
	// revivable-window depth, pages many enough to exceed the cache.
	AdaptiveStreamLen     = 32
	AdaptiveStreamExtents = 6
	// AdaptiveChurnLen and AdaptiveChurnPages shape the churn workload:
	// a page set that fits both the mapping cache and the per-CPU TLB,
	// swept with extent starts that repeat far outside the page-set
	// cache's depth.
	AdaptiveChurnLen   = 16
	AdaptiveChurnPages = 48
)

// BootAdaptive boots the canonical adaptive-workload kernel: the 4-way
// Xeon with the sharded engine (native runs, so Contig Auto resolves to
// the adaptive policy) and the canonical cache size.
func BootAdaptive() (*kernel.Kernel, error) {
	return kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    8*AdaptiveEntries + 256,
		CacheEntries: AdaptiveEntries,
	})
}

// ChurnAdaptiveWorkload drives one acceptance workload ("stream" or
// "churn") for rounds extents per CPU under one mapping policy:
// "adaptive" consults a consumer handle per extent (exactly as the
// converted subsystems do), "run" and "batch" pin the static paths.  It
// returns the pages moved.  Extents are touched through the honest MMU —
// a ranged translation per contiguous run, a per-page translation per
// batch — so walk economy and TLB behaviour are load-bearing.  The
// round-robin driver makes it deterministic: the policy's decisions
// depend on the order extents reach the consumer's EWMAs, and that order
// is fixed by the inputs alone.
func ChurnAdaptiveWorkload(k *kernel.Kernel, workload, policy string, rounds int) (int, error) {
	var pages []*vm.Page
	var runLen int
	var err error
	switch workload {
	case "stream":
		runLen = AdaptiveStreamLen
		pages, err = k.M.Phys.AllocN(AdaptiveStreamExtents * runLen)
	case "churn":
		runLen = AdaptiveChurnLen
		pages, err = k.M.Phys.AllocN(AdaptiveChurnPages)
	default:
		return 0, fmt.Errorf("unknown adaptive workload %q", workload)
	}
	if err != nil {
		return 0, err
	}
	cons := k.Consumer("adaptive-" + workload)
	ncpu := k.M.NumCPUs()
	span := len(pages) - runLen + 1
	var got []*vm.Page
	err = drive(k, rounds, func(ctx *smp.Context, cpu, r int) error {
		var extent []*vm.Page
		if workload == "stream" {
			e := (r + cpu) % AdaptiveStreamExtents
			extent = pages[e*runLen : (e+1)*runLen]
		} else {
			// The global extent sequence walks the span with period
			// span, so a given boundary repeats far outside the page-set
			// cache's revivable depth.
			start := ((r*ncpu + cpu) * 7) % span
			extent = pages[start : start+runLen]
		}
		useRun := policy == "run" || (policy == "adaptive" && cons.UseRuns(ctx, extent))
		return touchExtent(k, ctx, extent, useRun, &got)
	})
	return rounds * ncpu * runLen, err
}

// ChurnAuto is the scale experiment's adaptive counterpart of ChurnRun
// and ChurnBatch: the same shared-working-set extent pattern, but each
// extent routed through a consumer handle exactly as the converted
// subsystems route theirs — the run path where the handle (or the
// engine's static resolution) says runs, the batch path otherwise.  The
// returned count is in pages, comparable with the other Churn drivers.
func ChurnAuto(k *kernel.Kernel, pages []*vm.Page, ops, runLen int) (int, error) {
	return churnExtents(k, pages, ops, runLen, k.Consumer("scale").UseRuns)
}
