package experiments

import (
	"errors"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// This file drives the physical-contiguity experiments: a deterministic
// fragmentation-churn warmup that destroys a LIFO allocator's frame
// ordering forever (while the buddy allocator coalesces back), and a
// churn loop that allocates fresh physical extents per round — contiguous
// when the allocator can provide them — maps them as runs, and sweeps
// them through the honest MMU.  It is the proof harness for the buddy
// refactor's acceptance criterion: after churn, aligned AllocRun windows
// over AllocContig extents regain superpage promotion on the sharded
// engine, while a LIFO-backed kernel is stuck with scattered frames.

// FragmentPhys is the fragmentation-churn warmup: it allocates the
// machine's entire free physical memory in pseudorandom group sizes, then
// frees every group in shuffled order.  After the warmup a LIFO free
// stack is a random permutation — AllocN returns scattered frames until
// reboot — while the buddy allocator has coalesced back to maximal
// blocks; the two allocators' contrasting futures from an identical
// churn history are exactly what the recovery harness measures.  The
// churn is deterministic for a given pool, and respects the booted
// machine's socket topology (FragmentPhysOn).
func FragmentPhys(k *kernel.Kernel) error {
	return FragmentPhysOn(k.M.Phys, k.M.Topology())
}

// FragmentPhysOn is the topology-aware fragmentation churn.  On a flat
// machine it drains the pool with plain AllocN, byte-for-byte the
// historical behavior.  On a multi-package machine it drains each
// socket's frames in turn with AllocNOn — group sizes clamped to the
// socket's own free count so no group spills across packages — because a
// homed pool fragments per socket: churning only through the global
// allocator would let spill-over launder one package's fragmentation
// through another's free lists.  The freeing shuffle stays global; Free
// is address-routed, so every frame still coalesces back into its home
// socket's buddy lists.
func FragmentPhysOn(phys *vm.PhysMem, topo smp.Topology) error {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	sockets := topo.Sockets
	if sockets < 1 {
		sockets = 1
	}
	var groups [][]*vm.Page
	for s := 0; s < sockets; s++ {
		freeOn := func() int {
			if sockets == 1 {
				return phys.FreeFrames()
			}
			return phys.PhysStats().FreeBySocket[s]
		}
		for {
			n := 1 + next(13)
			if free := freeOn(); n > free {
				if free == 0 {
					break
				}
				n = free
			}
			var pages []*vm.Page
			var err error
			if sockets == 1 {
				pages, err = phys.AllocN(n)
			} else {
				pages, err = phys.AllocNOn(s, n)
			}
			if err != nil {
				if errors.Is(err, vm.ErrNoMemory) {
					break
				}
				return err
			}
			groups = append(groups, pages)
		}
	}
	for i := len(groups) - 1; i > 0; i-- {
		j := next(i + 1)
		groups[i], groups[j] = groups[j], groups[i]
	}
	for _, g := range groups {
		for _, pg := range g {
			phys.Free(pg)
		}
	}
	return nil
}

// ChurnFrag is the post-fragmentation extent churn: every CPU repeatedly
// allocates a FRESH runLen-page physical extent — AllocContig with the
// kernel's alignment hint where the allocator can, scattered AllocN
// where it cannot — maps it (AllocRun + ranged sweep when useRuns,
// AllocBatch + per-page translation otherwise, the CopyOutVec cost
// shape), and releases both the mapping and the frames.  It returns the
// pages churned and the fraction of extents served physically
// contiguous; on a buddy machine the fraction stays ~1.0 because freed
// extents coalesce, on a LIFO machine it is 0 forever.  With runLen =
// pmap.SuperpagePages every contiguous extent's aligned window promotes,
// which is the recovery BenchmarkAllocContig and the promotion-recovery
// test measure.
func ChurnFrag(k *kernel.Kernel, ops, runLen int, useRuns bool) (done int, contigFrac float64, err error) {
	ncpu := k.M.NumCPUs()
	rounds := ops / ncpu / runLen
	if rounds < 1 {
		rounds = 1
	}
	var contig, total int
	var got []*vm.Page
	err = drive(k, rounds, func(ctx *smp.Context, cpu, i int) error {
		pages, err := k.AllocPhysContig(runLen)
		if errors.Is(err, vm.ErrNoContig) {
			pages, err = k.M.Phys.AllocN(runLen)
		} else if err == nil {
			contig++
		}
		if err != nil {
			return err
		}
		total++
		if err := touchExtent(k, ctx, pages, useRuns, &got); err != nil {
			return err
		}
		for _, pg := range pages {
			k.M.Phys.Free(pg)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return rounds * ncpu * runLen, float64(contig) / float64(total), nil
}

// ContigRecoveryPages is the extent width the promotion-recovery harness
// churns: exactly one superpage span, so every contiguous extent's
// aligned run window can promote.
const ContigRecoveryPages = pmap.SuperpagePages

// BootContigRecovery boots the promotion-recovery rig: a 4-way Xeon
// running the sharded sf_buf engine with a mapping cache wide enough to
// hold two superpage-spanning runs, over enough physical memory that the
// fragmentation warmup leaves intact buddy blocks.  physBuddy selects the
// frame allocator under test.
func BootContigRecovery(physBuddy kernel.Tri) (*kernel.Kernel, error) {
	return kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    32 * ContigRecoveryPages,
		CacheEntries: 2*ContigRecoveryPages + 64,
		PhysBuddy:    physBuddy,
	})
}
