package experiments

import (
	"errors"
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

func init() {
	register("defrag", RunDefrag)
}

// This file drives the defragmentation-by-migration experiment: a shaped
// steady-state workload at ~70% physical occupancy where every superpage
// span holds a few scattered residents, so the buddy allocator alone can
// NEVER serve a contiguous superpage extent again — eager coalescing is
// defeated not by load but by placement.  Against that pool the driver
// runs the serving mix the converted subsystems generate: steady
// single-page mapping churn, plus a FIFO of superpage-spanning physical
// extents that are mapped as aligned run windows (promoting when the
// frames are contiguous), plus periodic idle ticks for the background
// daemon.  With migration off the kernel falls back to scattered extents
// forever; with migration on, evacuating a handful of nearly-free spans
// unlocks contiguous service that then SUSTAINS itself, because freed
// extents re-coalesce into the very spans migration reclaimed.
const (
	// defragSpans is the pool size in superpage spans.
	defragSpans = 16
	// defragSparse spans are left nearly free by the shaping churn; their
	// scattered survivors are what migration must evacuate.
	defragSparse = 5
	// defragSurvivors is the resident count pinned in each sparse span,
	// scattered so no aligned sub-span block larger than 16 frames is free.
	defragSurvivors = 32
	// defragHold is the FIFO depth of live extents: deep enough that the
	// first spans migration recovers stay consumed while new requests
	// arrive, shallow enough to fit the shaped pool's free memory.
	defragHold = 3
	// DefragChurnOps is the single-page mapping churn per round,
	// interleaved with each extent so the contiguity machinery is measured
	// under — and charged against — a steady serving load.
	DefragChurnOps = 512
	// defragWorkSet is the dense working set the churn maps; smaller than
	// the cache, so steady-state churn is hit-dominated and deterministic.
	defragWorkSet = 256
)

// bootDefrag boots one arm of the defragmentation experiment: the sharded
// i386 engine over a backed buddy pool of defragSpans superpage spans,
// reservation watermarks on, and the given migration policy.  The cache
// holds two superpage runs so extent windows and churn singles coexist.
func bootDefrag(migrate kernel.Tri) (*kernel.Kernel, error) {
	return kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    defragSpans * pmap.SuperpagePages,
		Backed:       true,
		CacheEntries: 2*pmap.SuperpagePages + 64,
		PhysBuddy:    kernel.On,
		Reserv:       kernel.On,
		Migrate:      migrate,
	})
}

// defragShape is the shaped occupancy churnDefrag runs against: most
// spans dense (fully resident), defragSparse spans nearly free with
// scattered survivors, and a byte oracle over every resident page so any
// migration that corrupts or mis-registers a single byte is caught.
type defragShape struct {
	// Held pins every resident page for the experiment's lifetime.
	Held []*vm.Page
	// WorkSet is the dense subset the steady churn maps.
	WorkSet []*vm.Page
	// Oracle snapshots every held page's bytes and registry identity.
	Oracle *physcheck.Oracle
}

// shapeOccupancy drains the fresh pool and frees it back into the shape
// that defeats plain buddy coalescing: spans 1..defragSparse keep only
// defragSurvivors scattered residents each (every 16th frame), every
// other span stays fully resident.  The result is ~70% occupancy with
// zero intact superpage blocks — sparse spans are migration candidates,
// dense spans never are.
func shapeOccupancy(k *kernel.Kernel) (*defragShape, error) {
	span := pmap.SuperpagePages
	phys := k.M.Phys
	var bySpan [][]*vm.Page
	for {
		pg, err := phys.Alloc()
		if err != nil {
			if errors.Is(err, vm.ErrNoMemory) {
				break
			}
			return nil, err
		}
		s := int(pg.Frame()) / span
		for len(bySpan) <= s {
			bySpan = append(bySpan, nil)
		}
		bySpan[s] = append(bySpan[s], pg)
	}
	shape := &defragShape{}
	for s, pages := range bySpan {
		sparse := s >= 1 && s <= defragSparse
		for _, pg := range pages {
			if sparse && int(pg.Frame())%span%16 != 5 {
				phys.Free(pg)
				continue
			}
			shape.Held = append(shape.Held, pg)
			if !sparse && len(shape.WorkSet) < defragWorkSet {
				shape.WorkSet = append(shape.WorkSet, pg)
			}
		}
	}
	// Stamp every resident with a distinct two-byte tag; the oracle
	// snapshot makes the tags (and the zero tail) the migration contract.
	for i, pg := range shape.Held {
		d := pg.Data()
		d[0] = byte(i + 1)
		d[1] = byte(i>>8 + 1)
	}
	shape.Oracle = physcheck.NewOracle(shape.Held)
	total := defragSpans * span
	occ := total - phys.FreeFrames()
	if occ < total*65/100 || occ > total*75/100 {
		return nil, fmt.Errorf("defrag shape: occupancy %d/%d outside the ~70%% band", occ, total)
	}
	if free := phys.FreeFrames(); free < (defragHold+1)*span {
		return nil, fmt.Errorf("defrag shape: %d free frames cannot float %d held extents", free, defragHold)
	}
	return shape, nil
}

// churnDefrag runs the steady-state serving rounds: per round,
// DefragChurnOps single-page map/touch/unmap cycles over the dense
// working set, an idle tick every fourth round (the background daemon's
// slot, where its migrate duty runs ahead of demand), and one
// superpage-spanning extent — AllocPhysContig with the on-demand defrag
// retry, scattered AllocN when contiguity is truly unavailable — mapped
// as an aligned run, swept through the honest MMU with every translation
// checked against the page it must resolve to, then parked in a FIFO of
// defragHold live extents.  Returns the pages moved through the mapping
// layer and how many extents were served physically contiguous.
func churnDefrag(k *kernel.Kernel, shape *defragShape, rounds int) (done, contigServed int, err error) {
	span := pmap.SuperpagePages
	ncpu := k.M.NumCPUs()
	var hold [][]*vm.Page
	defer func() {
		for _, ext := range hold {
			for _, pg := range ext {
				k.M.Phys.Free(pg)
			}
		}
	}()
	var got []*vm.Page
	for r := 0; r < rounds; r++ {
		for i := 0; i < DefragChurnOps; i++ {
			ctx := k.Ctx((r + i) % ncpu)
			pg := shape.WorkSet[(r*13+i)%len(shape.WorkSet)]
			b, aerr := k.Map.Alloc(ctx, pg, 0)
			if aerr != nil {
				return 0, 0, aerr
			}
			tp, terr := k.Pmap.Translate(ctx, b.KVA(), false)
			if terr != nil {
				return 0, 0, terr
			}
			if tp != pg {
				return 0, 0, fmt.Errorf("round %d: churn translation resolved a different page", r)
			}
			k.Map.Free(ctx, b)
		}
		if r%4 == 3 {
			k.Idle(r%ncpu, 1<<15)
		}
		if len(hold) >= defragHold {
			for _, pg := range hold[0] {
				k.M.Phys.Free(pg)
			}
			hold = hold[1:]
		}
		ctx := k.Ctx(r % ncpu)
		pages, aerr := k.AllocPhysContig(span)
		if aerr == nil {
			contigServed++
		} else if errors.Is(aerr, vm.ErrNoContig) {
			pages, aerr = k.M.Phys.AllocN(span)
		}
		if aerr != nil {
			return 0, 0, fmt.Errorf("round %d: extent: %w", r, aerr)
		}
		rn, rerr := k.Map.AllocRun(ctx, pages, 0)
		if rerr != nil {
			return 0, 0, rerr
		}
		if rn.Contiguous() {
			got, rerr = k.Pmap.TranslateRun(ctx, rn.Base(), rn.Len(), false, got[:0])
			if rerr != nil {
				return 0, 0, rerr
			}
			for j, tp := range got {
				if tp != pages[j] {
					return 0, 0, fmt.Errorf("round %d: run slot %d resolved a different page", r, j)
				}
			}
		} else {
			for j := 0; j < rn.Len(); j++ {
				tp, terr := k.Pmap.Translate(ctx, rn.KVA(j), false)
				if terr != nil {
					return 0, 0, terr
				}
				if tp != pages[j] {
					return 0, 0, fmt.Errorf("round %d: scattered slot %d resolved a different page", r, j)
				}
			}
		}
		k.Map.FreeRun(ctx, rn)
		hold = append(hold, pages)
		done += DefragChurnOps + span
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return 0, 0, fmt.Errorf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	return done, contigServed, nil
}

// defragArm is one measured arm of the defragmentation experiment.
type defragArm struct {
	Done        int
	Extents     int
	ContigFrac  float64
	PromoPerSec float64
	CycPerOp    float64
	Mig         sfbuf.MigrationStats
}

// runDefragArm boots one arm, shapes its occupancy, proves the shape
// defeats the plain buddy allocator (a raw aligned AllocContig must
// fail), warms the cache and the recovery for two rounds, then measures
// the steady state — closing with the byte oracle and the structural
// free-list audit, so a corrupting or leaking migration fails the arm
// rather than skewing its numbers.
func runDefragArm(migrate kernel.Tri, rounds int) (*defragArm, error) {
	span := pmap.SuperpagePages
	k, err := bootDefrag(migrate)
	if err != nil {
		return nil, err
	}
	shape, err := shapeOccupancy(k)
	if err != nil {
		return nil, err
	}
	if _, err := k.M.Phys.AllocContig(span, span); !errors.Is(err, vm.ErrNoContig) {
		return nil, fmt.Errorf("defrag shape: raw AllocContig = %v, the shaped pool must starve it", err)
	}
	if _, _, err := churnDefrag(k, shape, 2); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	k.Reset()
	promoBase := k.Pmap.SuperStats().Promotions
	done, contig, err := churnDefrag(k, shape, rounds)
	if err != nil {
		return nil, err
	}
	promos := k.Pmap.SuperStats().Promotions - promoBase
	elapsed := k.M.TotalCycles()
	if err := shape.Oracle.Check(k.M.Phys); err != nil {
		return nil, fmt.Errorf("byte oracle after churn: %w", err)
	}
	if err := physcheck.Audit(k.M.Phys); err != nil {
		return nil, fmt.Errorf("free-list audit after churn: %w", err)
	}
	return &defragArm{
		Done:        done,
		Extents:     rounds,
		ContigFrac:  float64(contig) / float64(rounds),
		PromoPerSec: cycles.PerSecond(int64(promos), elapsed, k.Cfg.Platform.FreqGHz),
		CycPerOp:    float64(elapsed) / float64(done),
		Mig:         k.MigrationStats(),
	}, nil
}

// RunDefrag goes beyond the paper: it measures what superpage reservations
// plus defragmentation by migration buy a fragmented long-running kernel.
// Both arms run the identical shaped workload; the only difference is the
// Migrate knob.  The no-defrag arm shows today's buddy allocator defeated
// — zero contiguous extents, zero promotions, forever — while the defrag
// arm's first few evacuations unlock sustained contiguous service at a
// steady-state cycle cost within noise of the baseline (the criterion
// TestDefragEconomy enforces is 10%).
func RunDefrag(o Options) (*Result, error) {
	res := &Result{
		ID:    "defrag",
		Title: "Defragmentation by migration: contiguous extents under steady churn (Xeon 4-way)",
		Columns: []string{"variant", "ops", "extents", "contig%", "promo/s",
			"pages moved", "blocks freed", "cyc/op"},
		Notes: []string{
			"shaped pool: ~70% occupancy, every superpage span resident, sparse spans hold 32 scattered survivors",
			"each round: 512 single-page churn ops, one superpage extent mapped as an aligned run, FIFO of 3 live extents",
			"contig% counts extents served physically contiguous; promotions need an aligned contiguous run",
			"the defrag arm migrates on demand (AllocPhysContig retry) and ahead of demand (daemon idle ticks)",
			"byte oracle + free-list audit run on both arms: migration must not corrupt a byte or leak a block",
		},
	}
	ops := o.scaleInt(160000, 8192)
	rounds := ops / (DefragChurnOps + pmap.SuperpagePages)
	if rounds < 4 {
		rounds = 4
	}
	for _, armCfg := range []struct {
		name string
		pol  kernel.Tri
	}{
		{"defrag on", kernel.On},
		{"defrag off", kernel.Off},
	} {
		o.logf("defrag: measuring %s (%d rounds)...", armCfg.name, rounds)
		arm, err := runDefragArm(armCfg.pol, rounds)
		if err != nil {
			return nil, fmt.Errorf("defrag %s: %w", armCfg.name, err)
		}
		res.Rows = append(res.Rows, []string{
			armCfg.name, fmt.Sprintf("%d", arm.Done), fmt.Sprintf("%d", arm.Extents),
			fmt.Sprintf("%.2f", arm.ContigFrac), fmtF(arm.PromoPerSec),
			fmt.Sprintf("%d", arm.Mig.PagesMoved), fmt.Sprintf("%d", arm.Mig.BlocksFreed),
			fmt.Sprintf("%.1f", arm.CycPerOp),
		})
		res.SetMetric("contig_frac/"+armCfg.name, arm.ContigFrac)
		res.SetMetric("promo_per_sec/"+armCfg.name, arm.PromoPerSec)
		res.SetMetric("cyc_per_op/"+armCfg.name, arm.CycPerOp)
		res.SetMetric("pages_moved/"+armCfg.name, float64(arm.Mig.PagesMoved))
		res.SetMetric("blocks_freed/"+armCfg.name, float64(arm.Mig.BlocksFreed))
	}
	return res, nil
}
