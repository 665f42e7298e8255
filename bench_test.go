// Benchmarks regenerating every table and figure of the paper's
// evaluation.  Each benchmark runs the corresponding experiment at a
// reduced scale (the workload-to-cache ratios are preserved; see
// internal/experiments) and reports the figure's headline numbers as
// custom metrics.  cmd/sfbench runs the same experiments at full paper
// scale.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig2 -benchscale=1.0   # paper scale
package sfbuf

import (
	"flag"
	"strings"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/tlb"
	"sfbuf/internal/vm"
)

var benchScale = flag.Float64("benchscale", 0.02, "experiment scale for benchmarks (1.0 = paper scale)")

// runExperiment executes the registered experiment once per benchmark
// iteration and reports its improvement metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	runner, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := experiments.Options{Scale: *benchScale}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner(opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for _, key := range metricKeys {
		if v, ok := last.Metrics[key]; ok {
			// testing.B rejects units with whitespace; compact the
			// experiment's human-readable labels.
			b.ReportMetric(v, strings.ReplaceAll(key, " ", "_"))
		}
	}
}

// --- Section 3: microbenchmark table ---

func BenchmarkSec3TLBCosts(b *testing.B) {
	runExperiment(b, "sec3",
		"local_cached/Xeon-HTT", "remote/Xeon-MP-HTT", "remote/Opteron-MP")
}

// --- Figures 2-3: pipes ---

func BenchmarkFig2PipeBandwidth(b *testing.B) {
	runExperiment(b, "fig2",
		"improvement_pct/Xeon-UP", "improvement_pct/Xeon-MP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig3PipeInvalidations(b *testing.B) {
	runExperiment(b, "fig3",
		"local/Xeon-MP/sf_buf", "local/Xeon-MP/original", "remote/Xeon-MP/original")
}

// --- Figures 4-7: memory disks ---

func BenchmarkFig4DD128(b *testing.B) {
	runExperiment(b, "fig4", "improvement_pct/Xeon-UP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig5DD128Invalidations(b *testing.B) {
	runExperiment(b, "fig5",
		"remote/Xeon-MP/sf_buf: shared", "remote/Xeon-MP/original")
}

func BenchmarkFig6DD512(b *testing.B) {
	runExperiment(b, "fig6", "improvement_pct/Xeon-MP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig7DD512Invalidations(b *testing.B) {
	runExperiment(b, "fig7",
		"remote/Xeon-MP/sf_buf: private", "remote/Xeon-MP/sf_buf: shared")
}

// --- Figures 8-10: PostMark ---

func BenchmarkFig8PostMark(b *testing.B) {
	runExperiment(b, "fig8", "improvement_pct/Xeon-UP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig9PostMarkBandwidth(b *testing.B) {
	runExperiment(b, "fig9", "read_mbps/Xeon-MP/sf_buf", "write_mbps/Xeon-MP/sf_buf")
}

func BenchmarkFig10PostMarkInvalidations(b *testing.B) {
	runExperiment(b, "fig10", "local/Xeon-MP/sf_buf", "local/Xeon-MP/original")
}

// --- Figures 11-14: netperf ---

func BenchmarkFig11NetperfLargeMTU(b *testing.B) {
	runExperiment(b, "fig11", "improvement_pct/Xeon-UP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig12NetperfSmallMTU(b *testing.B) {
	runExperiment(b, "fig12", "improvement_pct/Xeon-UP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig13NetperfLargeMTUInvalidations(b *testing.B) {
	runExperiment(b, "fig13", "remote/Xeon-MP/sf_buf", "remote/Xeon-MP/original")
}

func BenchmarkFig14NetperfSmallMTUInvalidations(b *testing.B) {
	runExperiment(b, "fig14", "remote/Xeon-MP/sf_buf", "remote/Xeon-MP/original")
}

// --- Figures 15-20: web server ---

func BenchmarkFig15WebNASA(b *testing.B) {
	runExperiment(b, "fig15", "improvement_pct/Xeon-MP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig16WebRice(b *testing.B) {
	runExperiment(b, "fig16", "improvement_pct/Xeon-MP", "improvement_pct/Opteron-MP")
}

func BenchmarkFig17WebNASAInvalidations(b *testing.B) {
	runExperiment(b, "fig17", "local/Xeon-MP/sf_buf", "local/Xeon-MP/original")
}

func BenchmarkFig18WebRiceInvalidations(b *testing.B) {
	runExperiment(b, "fig18", "local/Xeon-MP/sf_buf", "local/Xeon-MP/original")
}

func BenchmarkFig19CacheSweep(b *testing.B) {
	runExperiment(b, "fig19",
		"hitrate_on/64K cache entries", "hitrate_on/6K cache entries")
}

func BenchmarkFig20CacheSweepInvalidations(b *testing.B) {
	runExperiment(b, "fig20",
		"local/6K cache entries/offload=on", "local/6K cache entries/offload=off")
}

// --- Ablations: the design choices of DESIGN.md section 5, measured on a
// reuse-heavy mapping workload ---

type ablationRig struct {
	k     *kernel.Kernel
	sf    *sfbuf.I386
	pages []*vm.Page
}

func newAblationRig(b *testing.B, mode sfbuf.Ablation, entries, npages int) *ablationRig {
	b.Helper()
	k, err := kernel.Boot(kernel.Config{
		Platform: arch.XeonMP(),
		Mapper:   kernel.SFBuf,
		// The ablation benchmarks mirror the ablation experiment, which
		// studies the paper's cache engine.
		Cache:        kernel.CacheGlobal,
		PhysPages:    npages + 64,
		CacheEntries: entries,
	})
	if err != nil {
		b.Fatal(err)
	}
	i386 := k.Map.(*sfbuf.I386)
	i386.Ablate(mode)
	pages, err := k.M.Phys.AllocN(npages)
	if err != nil {
		b.Fatal(err)
	}
	return &ablationRig{k: k, sf: i386, pages: pages}
}

// ablationWorkload maps, touches and frees pages in rotation — the pipe
// reuse pattern — and reports simulated cycles per operation plus the
// invalidation counts.
func ablationWorkload(b *testing.B, mode sfbuf.Ablation) {
	r := newAblationRig(b, mode, 64, 32)
	ctx := r.k.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := r.pages[i%len(r.pages)]
		buf, err := r.sf.Alloc(ctx, pg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.k.Pmap.Translate(ctx, buf.KVA(), true); err != nil {
			b.Fatal(err)
		}
		r.sf.Free(ctx, buf)
	}
	b.StopTimer()
	b.ReportMetric(float64(r.k.M.TotalCycles())/float64(b.N), "simcycles/op")
	b.ReportMetric(float64(r.k.M.Counters().LocalInv.Load())/float64(b.N), "localinv/op")
	b.ReportMetric(float64(r.k.M.Counters().RemoteInvIssued.Load())/float64(b.N), "remoteinv/op")
}

func BenchmarkAblationFullDesign(b *testing.B)  { ablationWorkload(b, 0) }
func BenchmarkAblationAccessedBit(b *testing.B) { ablationWorkload(b, sfbuf.AblateAccessedBit) }
func BenchmarkAblationNoSharing(b *testing.B)   { ablationWorkload(b, sfbuf.AblateSharing) }
func BenchmarkAblationNoLazyReuse(b *testing.B) { ablationWorkload(b, sfbuf.AblateLazyTeardown) }

// BenchmarkScaleExperiment regenerates the sharded-vs-global-vs-original
// contention table (experiment "scale").
func BenchmarkScaleExperiment(b *testing.B) {
	runExperiment(b, "scale",
		"remote_per_kop/sf_buf sharded", "remote_per_kop/sf_buf global-lock",
		"ipis_per_kop/sf_buf sharded", "ipis_per_kop/sf_buf global-lock")
}

// BenchmarkServe regenerates the virtual-internet serving macro-
// benchmark (experiment "serve"): the five-way send-window sweep over
// the canonical lossy workload, reporting each arm's p99 mapping
// latency and the engines' per-megabyte walk and shootdown economy.
// docs/SERVING.md documents the topology and the metrics.
func BenchmarkServe(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "serve",
		"p99_adaptive", "p99_fixed-2", "p99_fixed-16", "p99_fixed-64", "p99_global",
		"walks_per_mb_adaptive", "walks_per_mb_global",
		"rounds_per_mb_adaptive", "rounds_per_mb_global")
}

// BenchmarkReclaim is make bench-reclaim's reporting benchmark
// (experiment "reclaim"): tail latency of the first allocation after an
// idle gap, with the background reclaim daemon riding the idle ticks vs
// the paper's on-demand-only reclaim, plus the steady-state churn cost of
// both arms (which must not differ — the daemon runs only against idle
// time).
func BenchmarkReclaim(b *testing.B) {
	runExperiment(b, "reclaim",
		"p99/daemon/16", "p999/daemon/16",
		"p99/on-demand/16", "p999/on-demand/16",
		"p99/daemon/1", "p99/on-demand/1",
		"steady_cyc_op/daemon", "steady_cyc_op/on-demand")
}

// BenchmarkAllocNUMA is make bench-numa's driving benchmark: the numa
// experiment's two-phase churn (hit-dominated hot set, then a cold sweep
// that forces reclaim) on a two-package Xeon, once with socket-homed
// mapping state and once with the flat hash-striped layout.  Wall-clock
// ns/op is the simulator's own cost; the metrics that matter are the
// cross-package lock acquisitions and teardown IPIs per operation, which
// homing exists to eliminate.
func BenchmarkAllocNUMA(b *testing.B) {
	cases := []struct {
		name   string
		homing kernel.Tri
	}{
		{"homed", kernel.Auto},
		{"striped", kernel.Off},
	}
	const (
		sockets = 2
		entries = 256
	)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.MustBoot(kernel.Config{
				Platform:     arch.XeonNUMA(sockets, 2),
				Mapper:       kernel.SFBuf,
				Cache:        kernel.CacheSharded,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
				Sockets:      sockets,
				Homing:       c.homing,
			})
			b.ResetTimer()
			done, err := experiments.ChurnNUMA(k, entries, b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			ops := float64(done)
			if ops == 0 {
				return
			}
			cnt := k.M.SnapshotCounters()
			b.ReportMetric(float64(cnt.RemoteLockAcq)/ops, "rlocks/op")
			b.ReportMetric(float64(cnt.RemoteIPIs)/ops, "rIPIs/op")
			b.ReportMetric(float64(cnt.LockAcq)/ops, "locks/op")
			b.ReportMetric(float64(k.M.TotalCycles())/ops, "simcycles/op")
		})
	}
}

// BenchmarkAllocContended churns Alloc/touch/Free round-robin over every
// virtual CPU (experiments.Churn) across a working set larger than the
// cache — the workload the sharded engine exists for.  Wall-clock ns/op
// measures only the simulator's own code; the reported metrics expose
// the shootdown traffic the simulated machine observed.
func BenchmarkAllocContended(b *testing.B) {
	cases := []struct {
		name  string
		mk    kernel.MapperKind
		cache kernel.CachePolicy
	}{
		{"sharded", kernel.SFBuf, kernel.CacheSharded},
		{"global", kernel.SFBuf, kernel.CacheGlobal},
		{"original", kernel.OriginalKernel, kernel.CacheSharded},
	}
	const entries = 512
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.MustBoot(kernel.Config{
				Platform:     arch.XeonMPHTT(),
				Mapper:       c.mk,
				Cache:        c.cache,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
			})
			pages, err := k.M.Phys.AllocN(4 * entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			done, err := experiments.Churn(k, pages, b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			ops := float64(done)
			if ops == 0 {
				return
			}
			cnt := k.M.SnapshotCounters()
			b.ReportMetric(float64(cnt.RemoteInvIssued)/ops, "remoteinv/op")
			b.ReportMetric(float64(cnt.IPIsDelivered)/ops, "ipis/op")
			b.ReportMetric(float64(cnt.LocalInv)/ops, "localinv/op")
			// The machine's modeled time: this is where the shootdown
			// waits the batching avoids actually live (wall-clock ns/op
			// only shows scheduler/lock behavior of the simulator).
			b.ReportMetric(float64(k.M.TotalCycles())/ops, "simcycles/op")
		})
	}
}

// BenchmarkAllocBatch is the vectored path's acceptance benchmark:
// contended churn in runs of 16 pages, comparing the sharded engine's
// native AllocBatch/FreeBatch against the same pages churned one at a
// time, against the global-lock cache's loop fallback, and against the
// original kernel's pmap_qenter path.  Reported per page moved: lock
// round trips, shootdown rounds (single-page IPI rounds plus batched
// flush rounds), and simulated cycles — the per-engine batch stats the
// bench smoke records.  The sharded vectored row must show >= 2x fewer
// locks/page than sharded single-page at equal shootdown rounds/page
// (enforced by TestVectoredLockAndShootdownEconomy and the scale
// experiment's batch rows; this benchmark is where the numbers surface).
func BenchmarkAllocBatch(b *testing.B) {
	const batch = 16 // == experiments.ScaleBatch
	cases := []struct {
		name    string
		mk      kernel.MapperKind
		cache   kernel.CachePolicy
		batched bool
	}{
		{"sharded-batch16", kernel.SFBuf, kernel.CacheSharded, true},
		{"sharded-single", kernel.SFBuf, kernel.CacheSharded, false},
		{"global-batch16", kernel.SFBuf, kernel.CacheGlobal, true},
		{"original-batch16", kernel.OriginalKernel, kernel.CacheSharded, true},
	}
	const entries = 512
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.MustBoot(kernel.Config{
				Platform:     arch.XeonMPHTT(),
				Mapper:       c.mk,
				Cache:        c.cache,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
			})
			pages, err := k.M.Phys.AllocN(4 * entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var done int
			if c.batched {
				done, err = experiments.ChurnBatch(k, pages, b.N, batch)
			} else {
				done, err = experiments.Churn(k, pages, b.N)
			}
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if done == 0 {
				return
			}
			perPage := float64(done)
			cnt := k.M.SnapshotCounters()
			st := k.Map.Stats()
			b.ReportMetric(float64(cnt.LockAcq)/perPage, "locks/page")
			b.ReportMetric(float64(cnt.RemoteInvIssued)/perPage, "sdrounds/page")
			b.ReportMetric(float64(cnt.IPIsDelivered)/perPage, "ipis/page")
			b.ReportMetric(float64(k.M.TotalCycles())/perPage, "simcycles/page")
			if st.BatchAllocs > 0 {
				b.ReportMetric(float64(st.BatchPages)/float64(st.BatchAllocs), "pages/batch")
			}
		})
	}
}

// BenchmarkAllocRun is the contiguous-run acceptance benchmark: contended
// churn in windows of 16 pages, comparing the sharded engine's native
// AllocRun + ranged translation against the scattered AllocBatch +
// per-page translation path (the CopyOutVec cost shape), the global-lock
// cache's loop-identical run fallback, and the original kernel.
// Reported per page moved: page-table walks (the ranged-translate
// economy — the run row must show >= 4x fewer than the batch row, pinned
// by TestRunTranslateEconomy), TLB entries filled, shootdown rounds
// (which must stay equal or better: window teardown debt launders in
// batches), and simulated cycles.
func BenchmarkAllocRun(b *testing.B) {
	const run = 16 // == experiments.ScaleBatch
	cases := []struct {
		name  string
		mk    kernel.MapperKind
		cache kernel.CachePolicy
		mode  string
	}{
		{"sharded-run16", kernel.SFBuf, kernel.CacheSharded, "run"},
		{"sharded-batch16", kernel.SFBuf, kernel.CacheSharded, "batch"},
		{"global-run16", kernel.SFBuf, kernel.CacheGlobal, "run"},
		{"original-run16", kernel.OriginalKernel, kernel.CacheSharded, "run"},
	}
	const entries = 512
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.MustBoot(kernel.Config{
				Platform:     arch.XeonMPHTT(),
				Mapper:       c.mk,
				Cache:        c.cache,
				PhysPages:    8*entries + 128,
				CacheEntries: entries,
			})
			pages, err := k.M.Phys.AllocN(4 * entries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var done int
			if c.mode == "run" {
				done, err = experiments.ChurnRun(k, pages, b.N, run)
			} else {
				done, err = experiments.ChurnBatch(k, pages, b.N, run)
			}
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if done == 0 {
				return
			}
			perPage := float64(done)
			cnt := k.M.SnapshotCounters()
			st := k.Map.Stats()
			var tlbTouched uint64
			for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
				ts := k.M.CPU(cpu).TLBStats()
				tlbTouched += ts.Inserts + ts.LargeInserts
			}
			b.ReportMetric(float64(cnt.PTWalks)/perPage, "walks/page")
			b.ReportMetric(float64(tlbTouched)/perPage, "tlb/page")
			b.ReportMetric(float64(cnt.LockAcq)/perPage, "locks/page")
			b.ReportMetric(float64(cnt.RemoteInvIssued)/perPage, "sdrounds/page")
			b.ReportMetric(float64(k.M.TotalCycles())/perPage, "simcycles/page")
			if st.RunAllocs > 0 {
				b.ReportMetric(float64(st.RunPages)/float64(st.RunAllocs), "pages/run")
			}
		})
	}
}

// BenchmarkAllocContig is the buddy frame allocator's acceptance
// benchmark: after a fragmentation-churn warmup, every round allocates a
// FRESH superpage-spanning physical extent, maps it as an aligned run,
// sweeps it, and releases everything.  On the buddy allocator the freed
// frames coalesce, so AllocContig keeps serving aligned contiguous
// extents (contig% ~1.0) and the run windows promote — after the first
// cold install the page-set cache revives the promoted window round
// after round.  On the seed's LIFO stack (the -lifo rows) contiguity
// never comes back: runs install scattered frames (no promotion), and
// the scattered-batch row pays the full per-page translation bill.  The
// promotion-recovery criterion (Promotions > 0, walks/page <= 1/4 of
// the scattered path) is enforced by TestContigPromotionRecovery; this
// benchmark is where the numbers surface.
func BenchmarkAllocContig(b *testing.B) {
	cases := []struct {
		name    string
		phys    kernel.Tri
		useRuns bool
	}{
		{"buddy-contig", kernel.Auto, true},
		{"lifo-run", kernel.Off, true},
		{"lifo-scattered-batch", kernel.Off, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k, err := experiments.BootContigRecovery(c.phys)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.FragmentPhys(k); err != nil {
				b.Fatal(err)
			}
			k.Reset()
			superBefore := k.Pmap.SuperStats()
			b.ResetTimer()
			done, frac, err := experiments.ChurnFrag(k, b.N, experiments.ContigRecoveryPages, c.useRuns)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			perPage := float64(done)
			cnt := k.M.SnapshotCounters()
			st := k.Map.Stats()
			super := k.Pmap.SuperStats()
			phys := k.PhysStats()
			b.ReportMetric(float64(cnt.PTWalks)/perPage, "walks/page")
			b.ReportMetric(float64(cnt.RemoteInvIssued)/perPage, "sdrounds/page")
			b.ReportMetric(float64(k.M.TotalCycles())/perPage, "simcycles/page")
			b.ReportMetric(frac, "contig/extent")
			b.ReportMetric(float64(super.Promotions-superBefore.Promotions), "promotions")
			b.ReportMetric(float64(phys.LargestFreeExtent), "largestfree_pages")
			if st.RunAllocs > 0 {
				b.ReportMetric(float64(st.RunRevives)/float64(st.RunAllocs), "revives/run")
			}
		})
	}
}

// BenchmarkAllocDefrag is make bench-defrag's reporting benchmark: the
// defrag experiment's steady-churn driver on the shaped ~70%-occupancy
// pool, where scattered residents in every superpage span defeat the
// buddy allocator's eager coalescing for good.  Each iteration is one
// serving round — 512 single-page churn ops plus one superpage extent
// mapped as an aligned run.  On the migrate row the Migrator evacuates
// the nearly-free spans (on demand from AllocPhysContig and ahead of
// demand on daemon idle ticks), so contig/extent returns to ~1.0 and the
// run windows promote; on the no-migrate row both stay 0 forever.  The
// acceptance criterion (>= 50% contiguous service, non-zero promotions,
// steady-state simcycles/op within 10% of the baseline, byte-oracle
// clean) is enforced by TestDefragEconomy; this benchmark is where the
// numbers surface.
func BenchmarkAllocDefrag(b *testing.B) {
	cases := []struct {
		name string
		pol  kernel.Tri
	}{
		{"migrate", kernel.On},
		{"no-migrate", kernel.Off},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k, err := experiments.BootDefrag(c.pol)
			if err != nil {
				b.Fatal(err)
			}
			shape, err := experiments.ShapeOccupancy(k)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := experiments.ChurnDefrag(k, shape, 2); err != nil {
				b.Fatal(err)
			}
			k.Reset()
			superBefore := k.Pmap.SuperStats()
			b.ResetTimer()
			done, contig, err := experiments.ChurnDefrag(k, shape, b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			super := k.Pmap.SuperStats()
			mig := k.MigrationStats()
			b.ReportMetric(float64(contig)/float64(b.N), "contig/extent")
			b.ReportMetric(float64(super.Promotions-superBefore.Promotions)/float64(b.N), "promotions/round")
			b.ReportMetric(float64(k.M.TotalCycles())/float64(done), "simcycles/op")
			b.ReportMetric(float64(mig.PagesMoved), "pagesmoved")
			b.ReportMetric(float64(mig.BlocksFreed), "blocksfreed")
		})
	}
}

// BenchmarkAllocTier is make bench-tier's reporting benchmark: the tier
// experiment's zipfian serving loop on the two-tier pool whose fast tier
// holds a quarter of the working set, each iteration one extent served
// (mapped, copied, checksummed, unmapped — slow frames paying the
// platform's per-byte surcharge).  On the hinted rows the consumer's
// reuse EWMAs nominate hot extents and the tier keeper migrates them
// fast; on the oblivious rows frames stay where allocation order put
// them.  The acceptance criterion (hinted <= 2/3 of oblivious
// simcycles/page on the zipfian workload, within 10% on the uniform
// adversarial one) is enforced by TestTierEconomy; this benchmark is
// where the numbers surface.
func BenchmarkAllocTier(b *testing.B) {
	for _, c := range []struct {
		name  string
		hints kernel.Tri
	}{
		{"hinted", kernel.On},
		{"oblivious", kernel.Off},
	} {
		for _, workload := range []string{"zipf", "uniform"} {
			b.Run(c.name+"-"+workload, func(b *testing.B) {
				k, err := experiments.BootTier(c.hints)
				if err != nil {
					b.Fatal(err)
				}
				extents, _, err := experiments.AllocTierExtents(k)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := experiments.ChurnTier(k, workload, extents, 600); err != nil {
					b.Fatal(err)
				}
				k.Reset()
				b.ResetTimer()
				pages, err := experiments.ChurnTier(k, workload, extents, b.N)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				st := k.TierStats()
				b.ReportMetric(float64(k.M.TotalCycles())/float64(pages), "simcycles/page")
				for _, cs := range st.Consumers {
					if cs.Name == "tier" {
						b.ReportMetric(cs.FastFrac(), "fastfrac")
					}
				}
				b.ReportMetric(float64(st.PromotedPages), "promoted")
				b.ReportMetric(float64(st.DemotedPages), "demoted")
			})
		}
	}
}

// BenchmarkAllocAdaptive is the adaptive-contiguity acceptance
// benchmark: the two canonical workloads (cyclic re-streaming of large
// extents wider than the cache, and reuse-heavy churn over a
// hash-resident page set with sliding extent boundaries), each driven
// under the adaptive per-consumer policy and under both static pins.
// The criterion — adaptive within 10% of the best static choice on both
// workloads and >= 2x better than the worst on each, in simulated
// cycles per page — is enforced by TestAdaptivePolicyEconomy; this
// benchmark is where the numbers surface.  On the streaming rows the
// revives/run metric shows the page-set window cache doing the work.
func BenchmarkAllocAdaptive(b *testing.B) {
	for _, workload := range []string{"stream", "churn"} {
		for _, policy := range []string{"adaptive", "run", "batch"} {
			b.Run(workload+"-"+policy, func(b *testing.B) {
				k, err := experiments.BootAdaptive()
				if err != nil {
					b.Fatal(err)
				}
				runLen := experiments.AdaptiveStreamLen
				if workload == "churn" {
					runLen = experiments.AdaptiveChurnLen
				}
				rounds := b.N / (k.M.NumCPUs() * runLen)
				if rounds < 1 {
					rounds = 1
				}
				b.ResetTimer()
				done, err := experiments.ChurnAdaptiveWorkload(k, workload, policy, rounds)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				perPage := float64(done)
				cnt := k.M.SnapshotCounters()
				st := k.Map.Stats()
				b.ReportMetric(float64(k.M.TotalCycles())/perPage, "simcycles/page")
				b.ReportMetric(float64(cnt.PTWalks)/perPage, "walks/page")
				b.ReportMetric(float64(cnt.RemoteInvIssued)/perPage, "sdrounds/page")
				if st.RunAllocs > 0 {
					b.ReportMetric(float64(st.RunRevives)/float64(st.RunAllocs), "revives/run")
				}
			})
		}
	}
}

// BenchmarkMapperMicro compares the four mapper implementations on the
// same single-page map/touch/unmap loop (Go-time measured; simulated
// cycles reported as a metric).
func BenchmarkMapperMicro(b *testing.B) {
	cases := []struct {
		name string
		plat arch.Platform
		mk   kernel.MapperKind
	}{
		{"i386-sfbuf", arch.XeonMP(), kernel.SFBuf},
		{"amd64-sfbuf", arch.OpteronMP(), kernel.SFBuf},
		{"i386-original", arch.XeonMP(), kernel.OriginalKernel},
		{"amd64-original", arch.OpteronMP(), kernel.OriginalKernel},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := kernel.MustBoot(kernel.Config{
				Platform:     c.plat,
				Mapper:       c.mk,
				PhysPages:    64,
				CacheEntries: 16,
			})
			ctx := k.Ctx(0)
			pg, err := k.M.Phys.Alloc()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err := k.Map.Alloc(ctx, pg, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := k.Pmap.Translate(ctx, buf.KVA(), false); err != nil {
					b.Fatal(err)
				}
				k.Map.Free(ctx, buf)
			}
			b.StopTimer()
			b.ReportMetric(float64(k.M.TotalCycles())/float64(b.N), "simcycles/op")
		})
	}
}

// BenchmarkTLBOps measures the raw software-TLB data structure, at twice
// its capacity so inserts evict.
func BenchmarkTLBOps(b *testing.B) {
	t := tlb.New(arch.XeonMP().TLBEntries)
	b.Run("insert-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vpn := uint64(i % 128)
			t.Insert(vpn, vpn+1)
			t.Lookup(vpn)
		}
	})
	b.Run("invalidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vpn := uint64(i % 128)
			t.Insert(vpn, vpn+1)
			t.Invalidate(vpn)
		}
	})
}

// BenchmarkTranslate measures the MMU model's hot path.
func BenchmarkTranslate(b *testing.B) {
	m := smp.NewMachine(arch.XeonMP(), 64, false)
	pm := pmap.New(m)
	ctx := m.Ctx(0)
	pg, err := m.Phys.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	va := uint64(pmap.KVABaseI386)
	pm.KEnter(ctx, va, pg)
	if _, err := pm.Translate(ctx, va, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.Translate(ctx, va, false); err != nil {
			b.Fatal(err)
		}
	}
}

// sanity check that every registered experiment has a benchmark above.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"sec3": true, "fig2": true, "fig3": true, "fig4": true, "fig5": true,
		"fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig10": true,
		"fig11": true, "fig12": true, "fig13": true, "fig14": true,
		"fig15": true, "fig16": true, "fig17": true, "fig18": true,
		"fig19": true, "fig20": true,
		"ablation": true, // covered by the BenchmarkAblation* family
		"scale":    true, // covered by BenchmarkScaleExperiment + BenchmarkAllocContended
		"serve":    true, // covered by BenchmarkServe
		"reclaim":  true, // covered by BenchmarkReclaim
		"numa":     true, // covered by BenchmarkAllocNUMA
		"defrag":   true, // covered by BenchmarkAllocDefrag
		"tier":     true, // covered by BenchmarkAllocTier
	}
	for _, id := range experiments.IDs() {
		if !covered[id] {
			t.Errorf("experiment %s has no benchmark", id)
		}
	}
	if len(experiments.IDs()) != len(covered) {
		t.Errorf("registered %d experiments, benchmarks cover %d",
			len(experiments.IDs()), len(covered))
	}
}
