package sfbuf_test

import (
	"fmt"

	root "sfbuf"
	"sfbuf/internal/kcopy"
)

// ExampleBoot demonstrates the quickstart path: boot a simulated Xeon
// running the sf_buf kernel, map a page, move data through the mapping,
// and observe that repeated mappings of the same page are cache hits.
// The default sharded cache allocates from clean per-CPU buffers, so even
// the initial shared-mapping miss needs no shootdown; booting with
// Cache: CacheGlobal selects the paper's cache, which pays one IPI round
// to widen that first mapping's cpumask.
func ExampleBoot() {
	k := root.MustBoot(root.Config{
		Platform:     root.XeonMP(),
		Mapper:       root.SFBufKernel,
		PhysPages:    64,
		Backed:       true,
		CacheEntries: 16,
	})
	ctx := k.Ctx(0)
	page, _ := k.M.Phys.Alloc()

	for i := 0; i < 3; i++ {
		b, _ := k.Map.Alloc(ctx, page, 0)
		kcopy.CopyIn(ctx, k.Pmap, b.KVA(), []byte("payload"))
		k.Map.Free(ctx, b)
	}
	s := k.Map.Stats()
	fmt.Printf("allocs=%d hits=%d misses=%d\n", s.Allocs, s.Hits, s.Misses)
	fmt.Printf("remote invalidations issued: %d\n", k.M.Counters().RemoteInvIssued.Load())
	// Output:
	// allocs=3 hits=2 misses=1
	// remote invalidations issued: 0
}

// ExampleBoot_originalKernel shows the baseline the paper compares
// against: every mapping allocates a fresh kernel virtual address and
// every free performs a global TLB invalidation.
func ExampleBoot_originalKernel() {
	k := root.MustBoot(root.Config{
		Platform:  root.XeonMP(),
		Mapper:    root.OriginalKernel,
		PhysPages: 64,
		Backed:    true,
	})
	ctx := k.Ctx(0)
	page, _ := k.M.Phys.Alloc()

	for i := 0; i < 3; i++ {
		b, _ := k.Map.Alloc(ctx, page, 0)
		k.Map.Free(ctx, b)
	}
	c := k.M.SnapshotCounters()
	fmt.Printf("local=%d remote=%d\n", c.LocalInv, c.RemoteInvIssued)
	// Output:
	// local=3 remote=3
}

// ExampleBoot_vectored maps a multi-page extent through the vectored
// calls — one AllocBatch and one FreeBatch for the whole run.  On the
// default sharded cache the batch takes one shard-lock round trip per
// shard it touches (instead of one per page), restocks misses with a
// bulk freelist pop, and still needs no shootdowns: clean buffers carry
// no TLB presence, and a Private batch taints only the calling CPU.
// Remapping the same pages is all hits.  When to batch: any multi-page
// extent handled as a unit — a pipe's loaned window, a memory-disk run,
// a sendfile burst.  A shortage mid-batch recycles one reclaim batch of
// buffers under one shootdown flush; a batch never issues more than one
// forced flush per reclaim round it triggers.
func ExampleBoot_vectored() {
	k := root.MustBoot(root.Config{
		Platform:     root.XeonMPHTT(),
		Mapper:       root.SFBufKernel,
		PhysPages:    128,
		Backed:       true,
		CacheEntries: 32,
	})
	ctx := k.Ctx(0)
	pages := make([]*root.Page, 8)
	for i := range pages {
		pages[i], _ = k.M.Phys.Alloc()
	}

	bufs, _ := k.Map.AllocBatch(ctx, pages, root.Private)
	kcopy.CopyInVec(ctx, k.Pmap, bufs, 0, []byte("vectored payload"))
	k.Map.FreeBatch(ctx, bufs)

	again, _ := k.Map.AllocBatch(ctx, pages, root.Private)
	k.Map.FreeBatch(ctx, again)

	s := k.Map.Stats()
	fmt.Printf("native batch: %v\n", root.NativeBatch(k.Map))
	fmt.Printf("batches=%d pages=%d hits=%d misses=%d\n",
		s.BatchAllocs, s.BatchPages, s.Hits, s.Misses)
	fmt.Printf("remote invalidations issued: %d\n", k.M.Counters().RemoteInvIssued.Load())
	// Output:
	// native batch: true
	// batches=2 pages=16 hits=8 misses=8
	// remote invalidations issued: 0
}

// ExampleBoot_contiguous maps a multi-page extent as ONE contiguous run:
// a single reserved VA window, installed in one page-table pass, copied
// across page boundaries under ranged translation (one page-table walk
// for the whole crossing instead of one per page), and released as a
// unit.
func ExampleBoot_contiguous() {
	k := root.MustBoot(root.Config{
		Platform:     root.XeonMPHTT(),
		Mapper:       root.SFBufKernel,
		PhysPages:    128,
		Backed:       true,
		CacheEntries: 32,
		// Contig defaults to Auto: runs wherever the engine provides
		// native contiguity (the sharded cache does).
	})
	ctx := k.Ctx(0)
	pages := make([]*root.Page, 8)
	for i := range pages {
		pages[i], _ = k.M.Phys.Alloc()
	}

	run, _ := k.Map.AllocRun(ctx, pages, root.Private)
	contiguous := run.Contiguous()
	payload := []byte("a payload crossing page boundaries")
	kcopy.CopyInRun(ctx, k.Pmap, run, root.PageSize-10, payload)
	back := make([]byte, len(payload))
	kcopy.CopyOutRun(ctx, k.Pmap, back, run, root.PageSize-10)
	k.Map.FreeRun(ctx, run)

	s := k.Map.Stats()
	fmt.Printf("native runs: %v, contiguous: %v\n", root.NativeRun(k.Map), contiguous)
	fmt.Printf("runs=%d pages=%d round trip: %q\n", s.RunAllocs, s.RunPages, back)
	fmt.Printf("walks for both copies: %d\n", k.M.Counters().PTWalks.Load())
	// Output:
	// native runs: true, contiguous: true
	// runs=1 pages=8 round trip: "a payload crossing page boundaries"
	// walks for both copies: 1
}

// ExampleBoot_adaptive shows the page-set window cache and the adaptive
// per-consumer contiguity policy: re-allocating a just-freed extent
// revives its parked window (a run-granularity cache hit: no PTE
// writes, no walks, no invalidations), and a consumer handle reports
// the policy state the subsystems decide with.
func ExampleBoot_adaptive() {
	k := root.MustBoot(root.Config{
		Platform:     root.XeonMPHTT(),
		Mapper:       root.SFBufKernel,
		PhysPages:    128,
		Backed:       true,
		CacheEntries: 32,
		// Contig defaults to Auto, which on the sharded engine is the
		// adaptive per-consumer policy (k.Plan.Adaptive).
	})
	ctx := k.Ctx(0)
	pages := make([]*root.Page, 8)
	for i := range pages {
		pages[i], _ = k.M.Phys.Alloc()
	}

	consumer := k.Consumer("example")
	for i := 0; i < 3; i++ {
		// Observe the extent, pick a path, map it.
		if ext, err := consumer.MapExtent(ctx, pages, root.Private); err == nil {
			ext.Unmap(ctx) // a run parks its window, revivable
		}
	}
	s := k.Map.Stats()
	ps := consumer.PolicyStats()
	fmt.Printf("revives=%d of %d runs; hits=%d\n", s.RunRevives, s.RunAllocs, s.Hits)
	fmt.Printf("consumer %q adaptive=%v run-decisions=%d\n", ps.Name, ps.Adaptive, ps.RunDecisions)
	// Output:
	// revives=2 of 3 runs; hits=16
	// consumer "example" adaptive=true run-decisions=3
}

// ExampleRunExperiment regenerates one of the paper's tables
// programmatically (here Section 3's microbenchmark, at reduced scale).
func ExampleRunExperiment() {
	res, err := root.RunExperiment("sec3", root.ExperimentOptions{Scale: 0.01})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ID, "rows:", len(res.Rows))
	// Output:
	// sec3 rows: 9
}
