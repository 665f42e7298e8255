package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func init() {
	register("scale", RunScale)
}

// RunScale goes beyond the paper: it measures the mapping cache itself
// under multiprocessor contention, comparing the sharded per-CPU engine
// against the paper's global-lock cache and the original kernel.  Every
// CPU churns shared Alloc/touch/Free cycles over a working set larger
// than the cache, the worst case for the Section 4.2 design: each miss
// replaces an accessed mapping, so the global cache pays one shootdown
// IPI round per miss, while the sharded cache batches the same teardown
// debt into one ranged round per reclaim batch.
//
// Reported per variant: hit rate, local invalidations, remote IPI rounds
// and IPIs delivered per 1000 operations, lock round trips per operation,
// page-table walks and TLB entries filled per operation (the touch is
// through the honest MMU, so walk economy shows up here), and the
// shootdown-queue coalescing factor (invalidations retired per flush).
// Each engine appears five times: churning one page at a time, churning
// the same pages through the vectored AllocBatch/FreeBatch calls in runs
// of ScaleBatch — the lock column is where the vectored fast path shows
// up — churning them as contiguous AllocRun windows read under ranged
// translation, where the walks column collapses, churning them through a
// per-consumer policy handle (the adaptive rows), which routes each
// extent the way the converted subsystems would, and churning fresh
// physical extents after a fragmentation warmup (the frag rows, whose
// contig% column is the buddy allocator's recovery).  The post-paper
// arms that are not about contention — reclaim, numa, defrag, tier —
// each have their own experiment.
func RunScale(o Options) (*Result, error) {
	res := &Result{
		ID:    "scale",
		Title: "Contended Alloc/Free: sharded vs. global-lock vs. original (Xeon 4-way)",
		Columns: []string{"variant", "ops", "hit rate", "local/1k ops",
			"remote rounds/1k ops", "IPIs/1k ops", "locks/op", "walks/op",
			"tlb/op", "coalesce", "contig%"},
		Notes: []string{
			"working set is 4x the cache so every shared reuse of the global cache pays a shootdown round",
			"coalesce = invalidations retired per batched flush (sharded engine only)",
			"walks/op = page-table walks per page touched; run rows pay one walk per contiguous run",
			"tlb/op = TLB entries filled per page touched (base + superpage entries)",
			"frag rows churn FRESH physical extents after a fragmentation-churn warmup; contig% is the fraction served physically contiguous (buddy allocator coalesces, LIFO never recovers)",
		},
	}

	plat := arch.XeonMPHTT()
	entries := o.scaleInt(256, 64)
	ops := o.scaleInt(200000, 4000)
	// Cap the batch at entries/(2·ncpu) so a run stays a small slice of
	// the cache at every scale: with drive's one extent in flight, an
	// Alloc never has to wait for a Free.
	batch := ScaleBatch
	if max := entries / (2 * plat.NumCPUs); batch > max {
		batch = max
	}
	if batch < 1 {
		batch = 1
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("batch rows churn the same pages through AllocBatch/FreeBatch in runs of %d", batch),
		fmt.Sprintf("run rows churn them as contiguous AllocRun windows of %d under ranged translation", batch),
		"adaptive rows route each extent through a consumer handle (the per-consumer contiguity policy), as the converted subsystems do")

	type variant struct {
		name string
		cfg  kernel.Config
	}
	base := kernel.Config{
		Platform:     plat,
		PhysPages:    8*entries + 128,
		Backed:       false,
		CacheEntries: entries,
	}
	variants := []variant{
		{"sf_buf sharded", func() kernel.Config {
			c := base
			c.Mapper = kernel.SFBuf
			c.Cache = kernel.CacheSharded
			return c
		}()},
		{"sf_buf global-lock", func() kernel.Config {
			c := base
			c.Mapper = kernel.SFBuf
			c.Cache = kernel.CacheGlobal
			return c
		}()},
		{"original", func() kernel.Config {
			c := base
			c.Mapper = kernel.OriginalKernel
			return c
		}()},
	}

	for _, mode := range []string{"single", "batch", "run", "adaptive", "frag"} {
		for _, v := range variants {
			name := v.name
			if mode != "single" {
				name = v.name + " " + mode
			}
			k, err := kernel.Boot(v.cfg)
			if err != nil {
				return nil, err
			}
			var done int
			contigCol := "-"
			if mode == "frag" {
				// The frag rows allocate their extents fresh from the
				// churned physical allocator instead of a boot-time pool.
				if err := FragmentPhys(k); err != nil {
					return nil, fmt.Errorf("scale %s warmup: %w", name, err)
				}
				k.Reset()
				var frac float64
				done, frac, err = ChurnFrag(k, ops, batch, true)
				if err == nil {
					contigCol = fmt.Sprintf("%.2f", frac)
					res.SetMetric("contig_frac/"+name, frac)
				}
			} else {
				var pages []*vm.Page
				pages, err = k.M.Phys.AllocN(4 * entries)
				if err != nil {
					return nil, err
				}
				switch mode {
				case "batch":
					done, err = ChurnBatch(k, pages, ops, batch)
				case "run":
					done, err = ChurnRun(k, pages, ops, batch)
				case "adaptive":
					done, err = ChurnAuto(k, pages, ops, batch)
				default:
					done, err = Churn(k, pages, ops)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("scale %s: %w", name, err)
			}
			scaleRow(res, k, name, done, contigCol)
		}
	}

	return res, nil
}

// scaleRow appends one engine's churn economy to the scale result.
func scaleRow(res *Result, k *kernel.Kernel, name string, done int, contigCol string) {
	s := k.M.SnapshotCounters()
	st := k.Map.Stats()
	perK := func(n uint64) float64 { return float64(n) * 1000 / float64(done) }
	coalesce := 0.0
	if s.BatchedFlushes > 0 {
		coalesce = float64(s.BatchedInv) / float64(s.BatchedFlushes)
	}
	locksPerOp := float64(s.LockAcq) / float64(done)
	walksPerOp := float64(s.PTWalks) / float64(done)
	var tlbTouched uint64
	for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
		ts := k.M.CPU(cpu).TLBStats()
		tlbTouched += ts.Inserts + ts.LargeInserts
	}
	tlbPerOp := float64(tlbTouched) / float64(done)
	res.Rows = append(res.Rows, []string{
		name, fmt.Sprintf("%d", done), fmt.Sprintf("%.2f", st.HitRate()),
		fmtF(perK(s.LocalInv)), fmtF(perK(s.RemoteInvIssued)),
		fmtF(perK(s.IPIsDelivered)), fmt.Sprintf("%.2f", locksPerOp),
		fmt.Sprintf("%.3f", walksPerOp), fmt.Sprintf("%.3f", tlbPerOp),
		fmtF(coalesce), contigCol,
	})
	res.SetMetric("remote_per_kop/"+name, perK(s.RemoteInvIssued))
	res.SetMetric("ipis_per_kop/"+name, perK(s.IPIsDelivered))
	res.SetMetric("local_per_kop/"+name, perK(s.LocalInv))
	res.SetMetric("hitrate/"+name, st.HitRate())
	res.SetMetric("coalesce/"+name, coalesce)
	res.SetMetric("locks_per_op/"+name, locksPerOp)
	res.SetMetric("walks_per_op/"+name, walksPerOp)
	res.SetMetric("tlb_per_op/"+name, tlbPerOp)
}

// ScaleBatch is the run length the scale experiment's batch rows use;
// the root BenchmarkAllocBatch churns the same length.
const ScaleBatch = 16

// Churn runs roughly ops shared Alloc/touch/Free cycles spread across
// every CPU by the round-robin driver, each CPU walking the working set at
// a different stride so frames stay spread across shards and CPUs share
// pages.  It returns the operation count actually executed (ops rounded
// down to a multiple of the CPU count).  The scale experiment's single
// rows and the root BenchmarkAllocContended both drive this loop.
func Churn(k *kernel.Kernel, pages []*vm.Page, ops int) (int, error) {
	ncpu := k.M.NumCPUs()
	n := ops / ncpu
	err := drive(k, n, func(ctx *smp.Context, cpu, i int) error {
		b, err := k.Map.Alloc(ctx, pages[(i*(2*cpu+1)+cpu*7)%len(pages)], 0)
		if err != nil {
			return err
		}
		// Touch through the honest MMU so the accessed bit is set and
		// the coherence protocol is load-bearing.
		_, err = k.Pmap.Translate(ctx, b.KVA(), false)
		k.Map.Free(ctx, b)
		return err
	})
	return n * ncpu, err
}

// ChurnBatch is the vectored counterpart of Churn: every CPU churns the
// same shared working set, but maps batch pages per AllocBatch, touches
// each through the honest MMU, and releases them with one FreeBatch.  The
// returned count is in pages (single-page-op equivalents), so rows and
// metrics stay directly comparable with Churn's.  The scale experiment's
// batch rows and the root BenchmarkAllocBatch both drive this loop.
func ChurnBatch(k *kernel.Kernel, pages []*vm.Page, ops, batch int) (int, error) {
	return churnExtents(k, pages, ops, batch, nil)
}

// ChurnRun is the contiguous-run counterpart of ChurnBatch: every CPU
// maps runLen pages per AllocRun, sweeps the whole window through the
// honest MMU with ONE ranged translation (one page-table walk per
// contiguous PTE run, versus one per page on the scattered paths), and
// releases it with one FreeRun.  Fallback engines return scattered runs,
// which are swept page by page.  The returned count is in pages,
// comparable with Churn and ChurnBatch.  The scale experiment's run rows
// and the root BenchmarkAllocRun both drive this loop.
func ChurnRun(k *kernel.Kernel, pages []*vm.Page, ops, runLen int) (int, error) {
	always := func(*smp.Context, []*vm.Page) bool { return true }
	return churnExtents(k, pages, ops, runLen, always)
}

// churnExtents is the shared body of the extent churns: every CPU maps n
// pages of the shared working set per round, at a CPU-specific stride, as
// a run window where useRun says so (nil: never) and as a batch
// otherwise.  It returns the pages moved.
func churnExtents(k *kernel.Kernel, pages []*vm.Page, ops, n int,
	useRun func(*smp.Context, []*vm.Page) bool) (int, error) {
	rounds := ops / k.M.NumCPUs() / n
	extent := make([]*vm.Page, n)
	var got []*vm.Page
	err := drive(k, rounds, func(ctx *smp.Context, cpu, i int) error {
		for j := range extent {
			extent[j] = pages[(i*n*(2*cpu+1)+j*7+cpu*11)%len(pages)]
		}
		return touchExtent(k, ctx, extent, useRun != nil && useRun(ctx, extent), &got)
	})
	return rounds * k.M.NumCPUs() * n, err
}
