package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func init() {
	register("numa", RunNUMA)
}

// RunNUMA measures what socket homing buys on a multi-package machine.
// The machine model charges asymmetric costs — a lock whose home socket
// differs from the acquiring CPU pays the cross-package multiplier, an
// IPI crossing packages pays the interconnect, memory traffic to a
// remote socket's frames pays per byte — so state placement becomes
// measurable: the same contended churn runs once with the mapping state
// homed per socket (shards striped within the frame's home package,
// freelists and pool sub-stocks per socket, socket-scoped reclaim) and
// once with the flat hash-striped layout, whose shard homes fall
// round-robin across packages.
//
// The workload is the NUMA-honest variant of the scale churn: every CPU
// churns private mappings over its OWN socket's frames (AllocNOn), the
// placement any page-local kernel subsystem — per-CPU buffer pools,
// socket-local network queues — actually produces.  It runs in two
// phases.  The hot phase sizes the combined working set to the cache
// capacity, so after warm-up every operation is a hash hit paying
// exactly one shard lock: under the homed layout that shard lives on
// the frame's (= the caller's) package, under the striped layout its
// home falls round-robin across packages and (S-1)/S of acquisitions
// cross the interconnect.  The cold phase then touches fresh
// socket-local frames to force reclaim, and the teardown shootdowns'
// targets — the CPUs that mapped the victims — expose where each
// layout's reclaim harvests: inside the package (homed, socket-scoped)
// or wherever the global hand happens to point (striped).
//
// Reported per socket count and arm: remote lock acquisitions per op,
// remote IPIs per op, total locks per op, IPIs per 1000 ops, and
// simulated cycles per op.  The acceptance criterion (TestNUMAEconomy)
// requires the homed arm to pay at most 1/4 the remote locks/op and 1/2
// the remote IPIs/op of the striped arm at no cycles/op regression.
func RunNUMA(o Options) (*Result, error) {
	res := &Result{
		ID:    "numa",
		Title: "Socket-homed vs. hash-striped mapping state on multi-package Xeons",
		Columns: []string{"config", "sockets", "ops", "rlocks/op", "rIPIs/op",
			"locks/op", "IPIs/1k ops", "cyc/op"},
		Notes: []string{
			"every CPU churns private mappings over frames homed on its own socket (AllocNOn)",
			"homed = shards grouped by the frame's home socket, per-socket pool sub-stocks, socket-scoped reclaim",
			"striped = flat global frame hash: shard homes fall round-robin across packages (Config.Homing=off)",
			"rlocks/op and rIPIs/op are the cross-package subsets of lock acquisitions and IPI deliveries",
		},
	}

	entries := o.scaleInt(256, 64)
	ops := o.scaleInt(160000, 4000)
	for _, sockets := range []int{2, 4} {
		plat := arch.XeonNUMA(sockets, 2)
		for _, armSpec := range []struct {
			name   string
			homing kernel.Tri
		}{
			{"homed", kernel.Auto},
			{"striped", kernel.Off},
		} {
			cfg := kernel.Config{
				Platform:     plat,
				Mapper:       kernel.SFBuf,
				Cache:        kernel.CacheSharded,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
				Sockets:      sockets,
				Homing:       armSpec.homing,
			}
			k, err := kernel.Boot(cfg)
			if err != nil {
				return nil, err
			}
			done, err := ChurnNUMA(k, entries, ops)
			if err != nil {
				return nil, fmt.Errorf("numa %s/%d: %w", armSpec.name, sockets, err)
			}
			name := fmt.Sprintf("%s %d-socket", armSpec.name, sockets)
			numaRow(res, k, name, sockets, done)
		}
	}
	return res, nil
}

// numaRow appends one arm's churn economy to the numa result.
func numaRow(res *Result, k *kernel.Kernel, name string, sockets, done int) {
	s := k.M.SnapshotCounters()
	rlocks := float64(s.RemoteLockAcq) / float64(done)
	ripis := float64(s.RemoteIPIs) / float64(done)
	locks := float64(s.LockAcq) / float64(done)
	ipisK := float64(s.IPIsDelivered) * 1000 / float64(done)
	cycOp := float64(k.M.TotalCycles()) / float64(done)
	res.Rows = append(res.Rows, []string{
		name, fmt.Sprintf("%d", sockets), fmt.Sprintf("%d", done),
		fmt.Sprintf("%.4f", rlocks), fmt.Sprintf("%.4f", ripis),
		fmt.Sprintf("%.2f", locks), fmtF(ipisK), fmt.Sprintf("%.1f", cycOp),
	})
	res.SetMetric("remote_locks_per_op/"+name, rlocks)
	res.SetMetric("remote_ipis_per_op/"+name, ripis)
	res.SetMetric("locks_per_op/"+name, locks)
	res.SetMetric("ipis_per_kop/"+name, ipisK)
	res.SetMetric("cyc_per_op/"+name, cycOp)
}

// ChurnNUMA is the socket-local churn: every CPU allocates its own
// disjoint working set from its OWN socket's frames (AllocNOn) and churns
// private Alloc/touch/Free cycles over it.  The CPUs run sequentially —
// the cost model charges each virtual CPU the same cycles either way, and
// a fixed interleaving keeps the reclaim phase's harvest order (and so
// every counter) exactly reproducible, which TestNUMADeterminism pins.
// The parallel cross-socket interleaving stressor is
// kernel.TestCrossSocketChurnStress, under -race.
//
// Two phases.  Hot phase (7/8 of ops): the per-CPU sets together total
// `entries` pages — the cache capacity — so after one warm-up sweep
// every operation hits the hash, and the only lock each Alloc and Free
// pays is its shard's.  Cold phase (1/8 of ops): each CPU churns a
// second, equally sized socket-local set; the first touches miss,
// overflow the cache, and drive reclaim rounds whose batched teardown
// flushes IPI the CPUs that mapped the victims.  Private mappings keep
// the alloc/free path itself IPI-free; every remote cost in this churn
// is therefore placement, not workload.  The returned count is the
// operations actually executed.
func ChurnNUMA(k *kernel.Kernel, entries, ops int) (int, error) {
	ncpu := k.M.NumCPUs()
	topo := k.M.Topology()
	perCPU := entries / ncpu
	if perCPU < 1 {
		perCPU = 1
	}
	hot := make([][]*vm.Page, ncpu)
	cold := make([][]*vm.Page, ncpu)
	for cpu := 0; cpu < ncpu; cpu++ {
		h, err := k.M.Phys.AllocNOn(topo.SocketOf(cpu), perCPU)
		if err != nil {
			return 0, err
		}
		c, err := k.M.Phys.AllocNOn(topo.SocketOf(cpu), perCPU)
		if err != nil {
			return 0, err
		}
		hot[cpu], cold[cpu] = h, c
	}
	nHot := ops * 7 / 8 / ncpu
	nCold := ops / 8 / ncpu
	if nCold < perCPU {
		nCold = perCPU // at least one full cold sweep so reclaim runs
	}
	churn := func(ctx *smp.Context, cpu, n int, pages []*vm.Page) error {
		for i := 0; i < n; i++ {
			pg := pages[(i*(2*cpu+1)+cpu*7)%len(pages)]
			b, err := k.Map.Alloc(ctx, pg, sfbuf.Private)
			if err != nil {
				return err
			}
			if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
				return err
			}
			k.Map.Free(ctx, b)
		}
		return nil
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		if err := churn(k.Ctx(cpu), cpu, nHot, hot[cpu]); err != nil {
			return 0, err
		}
	}
	for cpu := 0; cpu < ncpu; cpu++ {
		if err := churn(k.Ctx(cpu), cpu, nCold, cold[cpu]); err != nil {
			return 0, err
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return 0, fmt.Errorf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	return (nHot + nCold) * ncpu, nil
}
