package main

import (
	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
)

// Sizes of the three mapping-loop workloads.  One rep takes about a third
// of a second on the reference box, so a 10 s run holds 15-30 reps.
const (
	microEntries = 512     // mapping-cache entries of hot and churn
	microOps     = 1000000 // single-page ops per rep
	extentOps    = 36000   // extents per rep (27 pages each on average)
	extentWarm   = 2048    // warm-up extents: the policy's EWMAs settle
	extentCycle  = 8       // ops per cycle: six stream, one resident, one fresh
	freshLen     = experiments.AdaptiveChurnLen
	residentLen  = 8
)

// probe reads the public counters of every layer under the mapper.
type probe struct {
	st      sfbuf.Stats
	rw      sfbuf.RunWindowStats
	lookups uint64
	hits    uint64
	inserts uint64
	evicts  uint64
	kva     [3]uint64 // allocs, splits, coalesces
	promo   uint64
}

func takeProbe(k *kernel.Kernel) probe {
	p := probe{st: k.Map.Stats(), promo: k.Pmap.SuperStats().Promotions,
		kva: [3]uint64{k.Arena.Allocs(), k.Arena.Splits(), k.Arena.Coalesces()}}
	if m, ok := k.Map.(*sfbuf.I386); ok {
		p.rw = m.RunWindowStats()
	}
	for cpu := 0; cpu < k.M.NumCPUs(); cpu++ {
		ts := k.M.CPU(cpu).TLBStats()
		p.lookups += ts.Lookups
		p.hits += ts.Hits
		p.inserts += ts.Inserts + ts.LargeInserts
		p.evicts += ts.Evictions + ts.LargeEvictions
	}
	return p
}

// count adds the deltas since before to the rep's per-layer counts.  The
// gauges (largest free KVA run) and the physical allocator's since-boot
// totals are read at the end.
func (r *rep) count(k *kernel.Kernel, before probe) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	a := takeProbe(k)
	c := r.counts
	c["hits"] += float64(a.st.Hits - before.st.Hits)
	c["misses"] += float64(a.st.Misses - before.st.Misses)
	c["freelist"] += float64(a.st.FreelistAllocs - before.st.FreelistAllocs)
	c["reclaims"] += float64(a.st.Reclaims - before.st.Reclaims)
	c["reclaimed"] += float64(a.st.Reclaimed - before.st.Reclaimed)
	c["revives"] += float64(a.st.RunRevives - before.st.RunRevives)
	c["revive_misses"] += float64(a.st.RunReviveMisses - before.st.RunReviveMisses)
	c["wouldblock"] += float64(a.st.WouldBlock - before.st.WouldBlock)
	c["launders"] += float64(a.rw.Launders - before.rw.Launders)
	c["laundered"] += float64(a.rw.Laundered - before.rw.Laundered)
	c["promotions"] += float64(a.promo - before.promo)
	c["tlb_lookups"] += float64(a.lookups - before.lookups)
	c["tlb_hits"] += float64(a.hits - before.hits)
	c["tlb_inserts"] += float64(a.inserts - before.inserts)
	c["tlb_evictions"] += float64(a.evicts - before.evicts)
	c["kva_allocs"] += float64(a.kva[0] - before.kva[0])
	c["kva_splits"] += float64(a.kva[1] - before.kva[1])
	c["kva_coalesces"] += float64(a.kva[2] - before.kva[2])
	c["kva_largest"] = float64(k.Arena.LargestFreeRun())
	ps := k.PhysStats()
	c["phys_allocs"] += float64(ps.Allocs)
	c["phys_splits"] += float64(ps.Splits)
	c["phys_coalesces"] += float64(ps.Coalesces)
}

// runSingle is the hot and churn loop: one page mapped, touched through
// the honest MMU (the translated frame must be the page's) and unmapped,
// on the next virtual CPU each op.  ws pages are drawn from a seeded
// splitmix64 stream; ws = half the cache makes every op a hit, ws = 4x
// the cache makes four in five a miss.
func runSingle(e *env, ws int) (*rep, error) {
	r := newRep()
	k, err := bootConfig(e.tr, kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        e.cache,
		PhysPages:    8*microEntries + 128,
		CacheEntries: microEntries,
	})
	if err != nil {
		return nil, err
	}
	pages, err := allocN(e.tr, k, ws)
	if err != nil {
		return nil, err
	}
	ctxs := contexts(k)
	ncpu := len(ctxs)
	var tr *tracer // nil through the warm-up
	one := func(i int, pg *vm.Page) bool {
		ctx := ctxs[i%ncpu]
		s := tr.begin(spSfbufAlloc, i, 1)
		b, err := k.Map.Alloc(ctx, pg, 0)
		tr.end(s)
		if err != nil {
			return false
		}
		s = tr.begin(spPmapTranslate, i, 1)
		got, err := k.Pmap.Translate(ctx, b.KVA(), false)
		tr.end(s)
		ok := err == nil && got.Frame() == pg.Frame()
		s = tr.begin(spSfbufFree, i, 1)
		k.Map.Free(ctx, b)
		tr.end(s)
		return ok
	}
	// Warm-up: every page from every CPU once, so the measured phase
	// starts with the cache full and no first-touch left.
	for i := 0; i < ws*ncpu; i++ {
		if !one(i, pages[i/ncpu]) {
			r.fail("warm-up op %d", i)
		}
	}

	ops := e.scale(microOps)
	if e.sample {
		r.opCyc = make([]int64, 0, ops)
	}
	rng := vnet.NewRand(e.seed)
	var before probe
	if e.tr != nil {
		before = takeProbe(k)
	}
	tr = e.tr
	ph := r.beginPhase(k)
	for i := 0; i < ops; i++ {
		pg := pages[rng.Intn(ws)]
		var c0 cycles.Cycles
		if e.sample {
			c0 = ctxs[i%ncpu].CPU().Cycles()
		}
		if !one(i, pg) {
			r.fail("op %d: error or wrong frame", i)
		}
		if e.sample {
			r.opCyc = append(r.opCyc, int64(ctxs[i%ncpu].CPU().Cycles()-c0))
		}
	}
	ph.end(int64(ops), true)
	r.ops = int64(ops)
	if e.tr != nil {
		r.count(k, before)
	}
	r.drained(k)
	r.live(k)
	return r, nil
}

// runExtent drives the run path beside the single-page path: multi-page
// extents on the adaptive-policy kernel, each routed as the consumer
// handle says.  Three streams interleave in a fixed cycle of eight ops,
// so the page count does not move with the seed; only offsets are drawn:
//
//   - six ops re-request the next of six 32-page extents cyclically: parked
//     run windows revive;
//   - one takes a 16-page extent at a seeded offset of a pool four times
//     the cache: a cold install, and the dirty window that pushes the pool
//     into a laundering round, after which the stream installs cold once;
//   - one takes an 8-page extent at a seeded offset of a 48-page set that
//     stays hash-resident, through a consumer handle of its own (as each
//     subsystem has): pages repeat and extents do not, which is where the
//     policy turns to AllocBatch.
func runExtent(e *env) (*rep, error) {
	r := newRep()
	k, err := boot(e.tr, experiments.BootAdaptive)
	if err != nil {
		return nil, err
	}
	const streamLen, streamExtents = experiments.AdaptiveStreamLen, experiments.AdaptiveStreamExtents
	stream, err := allocN(e.tr, k, streamExtents*streamLen)
	if err != nil {
		return nil, err
	}
	fresh, err := allocN(e.tr, k, 4*experiments.AdaptiveEntries)
	if err != nil {
		return nil, err
	}
	resident, err := allocN(e.tr, k, experiments.AdaptiveChurnPages)
	if err != nil {
		return nil, err
	}
	cons := k.Consumer("bench-extent")
	resCons := k.Consumer("bench-resident")
	ctxs := contexts(k)
	ncpu := len(ctxs)
	rng := vnet.NewRand(e.seed)
	var got []*vm.Page
	var tr *tracer
	next := 0 // the stream's position in its cycle
	one := func(i int) (pages int, ok bool) {
		ctx := ctxs[i%ncpu]
		var ext []*vm.Page
		cons := cons
		switch i % extentCycle {
		case extentCycle - 1:
			at := rng.Intn(len(fresh) - freshLen + 1)
			ext = fresh[at : at+freshLen]
		case extentCycle - 2:
			at := rng.Intn(len(resident) - residentLen + 1)
			ext = resident[at : at+residentLen]
			cons = resCons
		default:
			x := next % streamExtents
			next++
			ext = stream[x*streamLen : (x+1)*streamLen]
		}
		n := len(ext)
		s := tr.begin(spKernelUseRuns, i, 1)
		useRun := cons.UseRuns(ctx, ext)
		tr.end(s)
		ok = true
		if useRun {
			s = tr.begin(spSfbufAllocRun, i, n)
			rn, err := k.Map.AllocRun(ctx, ext, 0)
			tr.end(s)
			if err != nil {
				return n, false
			}
			if rn.Contiguous() {
				s = tr.begin(spPmapTranslateRun, i, n)
				got, err = k.Pmap.TranslateRun(ctx, rn.Base(), n, false, got[:0])
				tr.end(s)
				ok = err == nil && len(got) == n
				for j := 0; ok && j < n; j++ {
					ok = got[j].Frame() == ext[j].Frame()
				}
			} else {
				for j := 0; j < n; j++ {
					s = tr.begin(spPmapTranslate, i, 1)
					pg, err := k.Pmap.Translate(ctx, rn.KVA(j), false)
					tr.end(s)
					ok = ok && err == nil && pg.Frame() == ext[j].Frame()
				}
			}
			s = tr.begin(spSfbufFreeRun, i, n)
			k.Map.FreeRun(ctx, rn)
			tr.end(s)
			return n, ok
		}
		s = tr.begin(spSfbufAllocBatch, i, n)
		bufs, err := k.Map.AllocBatch(ctx, ext, 0)
		tr.end(s)
		if err != nil {
			return n, false
		}
		for j, b := range bufs {
			s = tr.begin(spPmapTranslate, i, 1)
			pg, err := k.Pmap.Translate(ctx, b.KVA(), false)
			tr.end(s)
			ok = ok && err == nil && pg.Frame() == ext[j].Frame()
		}
		s = tr.begin(spSfbufFreeBatch, i, n)
		k.Map.FreeBatch(ctx, bufs)
		tr.end(s)
		return n, ok
	}
	warm := extentWarm
	if e.quick {
		warm /= 4
	}
	for i := 0; i < warm; i++ {
		if _, ok := one(i); !ok {
			r.fail("warm-up extent %d", i)
		}
	}

	ops := e.scale(extentOps)
	if e.sample {
		r.opCyc = make([]int64, 0, ops)
	}
	var before probe
	decisions := func() (run, batch uint64) {
		for _, c := range []*kernel.MapConsumer{cons, resCons} {
			ps := c.PolicyStats()
			run += ps.RunDecisions
			batch += ps.BatchDecisions
		}
		return run, batch
	}
	run0, batch0 := decisions()
	if e.tr != nil {
		before = takeProbe(k)
	}
	tr = e.tr
	var pages int64
	ph := r.beginPhase(k)
	for i := 0; i < ops; i++ {
		var c0 cycles.Cycles
		if e.sample {
			c0 = ctxs[i%ncpu].CPU().Cycles()
		}
		n, ok := one(i)
		if !ok {
			r.fail("extent %d: error or wrong frame", i)
		}
		pages += int64(n)
		if e.sample {
			r.opCyc = append(r.opCyc, int64(ctxs[i%ncpu].CPU().Cycles()-c0))
		}
	}
	ph.end(pages, true)
	r.ops = int64(ops)
	if e.tr != nil {
		r.count(k, before)
		run, batch := decisions()
		r.counts["run_dec"], r.counts["batch_dec"] = float64(run-run0), float64(batch-batch0)
	}
	r.drained(k)
	r.live(k)
	return r, nil
}
