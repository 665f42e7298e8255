// Benchmarks of the simulator's own hot loops: the ablation design
// choices, the contended churn loops the scale experiment drives, the
// contiguity and adaptive-policy churns, and the raw TLB and MMU model.
// Each reports simulated-machine metrics beside wall-clock ns/op.  The
// experiments themselves run under cmd/sfbench and are gated by their
// tests in internal/experiments.
//
//	go test -run '^$' -bench . -benchmem
package sfbuf

import (
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
