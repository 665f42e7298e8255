package experiments

import (
	"fmt"
	"math"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

func init() {
	register("tier", RunTier)
}

// This file drives the tiered-memory experiment: a two-tier physical pool
// whose fast tier holds a quarter of the working set, under a zipfian
// extent-popularity serving workload — a handful of extents carry most of
// the traffic, exactly the skew a static web or file server sees.  Every
// byte copied or checksummed against a slow frame pays the platform's
// slow-memory surcharge, so placement is the whole economy: the hinted
// arm lets each consumer's reuse EWMAs nominate hot extents for promotion
// into the fast tier (the kernel's tier keeper, riding the migration
// machinery), while the oblivious arm leaves frames wherever allocation
// order put them.  A uniform workload runs as the adversarial control:
// with no stable popularity the EWMAs never clear the hot threshold, the
// keeper promotes (almost) nothing, and the hinted arm must cost within
// noise of the oblivious one — hints that thrash are worse than no hints.
const (
	// TierExtents and TierExtentLen shape the working set: 48 extents of
	// 8 pages, 384 pages total.
	TierExtents   = 48
	TierExtentLen = 8
	// TierPhysPages is the pool size; with TierFastFraction of it fast,
	// the fast tier (96 frames) holds ~25% of the working set — 12 of the
	// 48 extents, forcing real placement choices.
	TierPhysPages    = 768
	TierFastFraction = 0.125
	// tierZipfS is the zipfian skew of the popular workload: steep enough
	// that the top dozen extents carry ~80% of accesses (and repeat fast
	// enough for the reuse EWMAs to see them), shallow enough that the
	// tail still interleaves.
	tierZipfS = 1.3
	// tierIdleEvery is the idle-tick period in accesses: the background
	// daemon's slot, where the tier keeper's idle demotion keeps a free
	// reserve in the fast tier.
	tierIdleEvery = 16
	// tierLCGMul and tierLCGInc are the driver's deterministic LCG.
	tierLCGMul = 6364136223846793005
	tierLCGInc = 1442695040888963407
)

// BootTier boots one arm of the tiered-memory experiment: the sharded
// i386 engine over a backed two-tier buddy pool, reservations off so
// frame placement is pure allocation order, and the given hint policy —
// the arms differ in nothing else.
func BootTier(hints kernel.Tri) (*kernel.Kernel, error) {
	return kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    TierPhysPages,
		Backed:       true,
		CacheEntries: 512,
		PhysBuddy:    kernel.On,
		Reserv:       kernel.Off,
		Tiers:        2,
		FastFraction: TierFastFraction,
		TierHints:    hints,
	})
}

// AllocTierExtents carves the working set in pure address order — the
// first extents land in the fast tier, which is exactly what the
// oblivious arm has to live with — and stamps every page for the byte
// oracle, so a corrupting promotion fails the arm instead of skewing it.
func AllocTierExtents(k *kernel.Kernel) ([][]*vm.Page, *physcheck.Oracle, error) {
	extents := make([][]*vm.Page, TierExtents)
	var all []*vm.Page
	for e := range extents {
		pages, err := k.M.Phys.AllocN(TierExtentLen)
		if err != nil {
			return nil, nil, err
		}
		extents[e] = pages
		all = append(all, pages...)
	}
	for i, pg := range all {
		d := pg.Data()
		d[0] = byte(i + 1)
		d[1] = byte(i>>8 + 1)
	}
	return extents, physcheck.NewOracle(all), nil
}

// tierZipfCum builds the cumulative zipfian popularity distribution over
// the extent ranks.
func tierZipfCum() []float64 {
	cum := make([]float64, TierExtents)
	total := 0.0
	for r := 0; r < TierExtents; r++ {
		total += 1 / math.Pow(float64(r+1), tierZipfS)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return cum
}

// tierExtentOf maps a popularity rank to an extent index.  The affine
// permutation decorrelates popularity from allocation order: the extents
// the oblivious arm happens to hold fast (the first-allocated dozen)
// carry only ~10% of the zipfian access mass, so whatever the hinted arm
// wins, it wins by placement, not by luck.
func tierExtentOf(rank int) int { return (7*rank + 19) % TierExtents }

// ChurnTier runs the serving loop: per access, one extent chosen by the
// workload's popularity distribution is routed through the consumer
// handle (whose observation doubles as the tier hint), mapped, served —
// every page pays a copy charge and a checksum charge against its
// current frame, so slow-tier residency costs exactly what the cost
// model says it costs — and unmapped.  A single goroutine round-robins
// the CPU contexts, keeping the access order (and so the EWMA and
// migration histories) deterministic.  Every tierIdleEvery accesses one
// CPU takes an idle tick: the daemon's slot.
func ChurnTier(k *kernel.Kernel, workload string, extents [][]*vm.Page, accesses int) (int, error) {
	cons := k.Consumer("tier")
	ncpu := k.M.NumCPUs()
	cum := tierZipfCum()
	state := uint64(0x9E3779B97F4A7C15)
	pages := 0
	var got []*vm.Page
	for i := 0; i < accesses; i++ {
		state = state*tierLCGMul + tierLCGInc
		u := float64(state>>11) / (1 << 53)
		rank := 0
		switch workload {
		case "zipf":
			for cum[rank] < u {
				rank++
			}
		case "uniform":
			rank = int(u * TierExtents)
			if rank >= TierExtents {
				rank = TierExtents - 1
			}
		default:
			return 0, fmt.Errorf("unknown tier workload %q", workload)
		}
		ext := extents[tierExtentOf(rank)]
		ctx := k.Ctx(i % ncpu)
		if cons.UseRuns(ctx, ext) {
			rn, err := k.Map.AllocRun(ctx, ext, 0)
			if err != nil {
				return 0, err
			}
			if rn.Contiguous() {
				got, err = k.Pmap.TranslateRun(ctx, rn.Base(), rn.Len(), false, got[:0])
				if err != nil {
					return 0, err
				}
			} else {
				for j := 0; j < rn.Len(); j++ {
					if _, err := k.Pmap.Translate(ctx, rn.KVA(j), false); err != nil {
						return 0, err
					}
				}
			}
			serveTierExtent(ctx, ext)
			k.Map.FreeRun(ctx, rn)
		} else {
			bufs, err := k.Map.AllocBatch(ctx, ext, 0)
			if err != nil {
				return 0, err
			}
			for _, b := range bufs {
				if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
					return 0, err
				}
			}
			serveTierExtent(ctx, ext)
			k.Map.FreeBatch(ctx, bufs)
		}
		pages += len(ext)
		if i%tierIdleEvery == tierIdleEvery-1 {
			k.Idle(i%ncpu, 1<<15)
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return 0, fmt.Errorf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	return pages, nil
}

// serveTierExtent charges the serving work — one copy pass and one
// checksum pass per page, each against the page's CURRENT frame.  The
// frame is read per charge, after the consumer's hint had its chance to
// migrate, so a promotion pays off (or a slow residency costs) starting
// with this very access.
func serveTierExtent(ctx *smp.Context, ext []*vm.Page) {
	cost := ctx.Cost()
	for _, pg := range ext {
		f := pg.Frame()
		ctx.ChargeBytesAt(cost.CopyPerByte, vm.PageSize, f)
		ctx.ChargeBytesAt(cost.ChecksumPerByte, vm.PageSize, f)
	}
}

// TierArm is one measured arm of the tiered-memory experiment.
type TierArm struct {
	K          *kernel.Kernel
	Pages      int
	CycPerPage float64
	Stats      kernel.TierStats
}

// RunTierArm boots one arm, carves the working set, warms the caches and
// the placement (the hinted arm's promotions mostly happen here), resets
// the counters and measures the steady state — closing with the byte
// oracle and the structural free-list audit, so a corrupting or leaking
// tier move fails the arm rather than skewing its numbers.
func RunTierArm(hints kernel.Tri, workload string, warmup, accesses int) (*TierArm, error) {
	k, err := BootTier(hints)
	if err != nil {
		return nil, err
	}
	extents, oracle, err := AllocTierExtents(k)
	if err != nil {
		return nil, err
	}
	if _, err := ChurnTier(k, workload, extents, warmup); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	k.Reset()
	pages, err := ChurnTier(k, workload, extents, accesses)
	if err != nil {
		return nil, err
	}
	elapsed := k.M.TotalCycles()
	if err := oracle.Check(k.M.Phys); err != nil {
		return nil, fmt.Errorf("byte oracle after churn: %w", err)
	}
	if err := physcheck.Audit(k.M.Phys); err != nil {
		return nil, fmt.Errorf("free-list audit after churn: %w", err)
	}
	return &TierArm{
		K:          k,
		Pages:      pages,
		CycPerPage: float64(elapsed) / float64(pages),
		Stats:      k.TierStats(),
	}, nil
}

// tierFastFrac extracts the "tier" consumer's fast-tier hit rate from an
// arm's stats.
func tierFastFrac(st kernel.TierStats) float64 {
	for _, c := range st.Consumers {
		if c.Name == "tier" {
			return c.FastFrac()
		}
	}
	return 0
}

// RunTier goes beyond the paper: it measures what consumer-hinted
// placement buys a kernel whose physical pool is not uniform — the
// tiered-memory reality (NUMA far tiers, CXL, persistent memory) that
// postdates the paper's machines.  Four arms: {hinted, oblivious} x
// {zipfian, uniform}.  On the zipfian workload the hinted arm must serve
// a page in at most two thirds of the oblivious arm's cycles (the
// criterion TestTierEconomy enforces); on the uniform workload it must
// stay within 10% — the hot-threshold gate, not luck, is what keeps the
// keeper from thrashing copies it cannot amortize.
func RunTier(o Options) (*Result, error) {
	res := &Result{
		ID:    "tier",
		Title: "Tiered memory: consumer-hinted hot-extent placement (Xeon 4-way, fast tier = 25% of working set)",
		Columns: []string{"variant", "workload", "pages", "fast%/op", "promoted", "demoted",
			"slow-surcharge Mcyc", "cyc/page"},
		Notes: []string{
			"two-tier buddy pool: 96 of 768 frames fast; slow frames pay the platform surcharge per copied/checksummed byte",
			"48 extents of 8 pages; zipfian popularity (s=1.3) decorrelated from allocation order, uniform as the adversarial control",
			"hinted arm: consumer reuse EWMAs nominate hot extents, the tier keeper promotes them and demotes the coldest residents",
			"oblivious arm books the same tier split but leaves frames where allocation order put them",
			"fast%/op is the fraction of served pages found fast-tier resident at observation time",
			"byte oracle + free-list audit run on every arm: a tier move must not corrupt a byte or leak a block",
		},
	}
	accesses := o.scaleInt(12000, 1600)
	warmup := 400 + accesses/10
	for _, armCfg := range []struct {
		name  string
		hints kernel.Tri
	}{
		{"hinted", kernel.On},
		{"oblivious", kernel.Off},
	} {
		for _, workload := range []string{"zipf", "uniform"} {
			o.logf("tier: measuring %s/%s (%d accesses)...", armCfg.name, workload, accesses)
			arm, err := RunTierArm(armCfg.hints, workload, warmup, accesses)
			if err != nil {
				return nil, fmt.Errorf("tier %s/%s: %w", armCfg.name, workload, err)
			}
			st := arm.Stats
			res.Rows = append(res.Rows, []string{
				armCfg.name, workload, fmt.Sprintf("%d", arm.Pages),
				fmt.Sprintf("%.2f", tierFastFrac(st)),
				fmt.Sprintf("%d", st.PromotedPages), fmt.Sprintf("%d", st.DemotedPages),
				fmt.Sprintf("%.1f", float64(st.SlowMemCycles)/1e6),
				fmt.Sprintf("%.1f", arm.CycPerPage),
			})
			key := workload + "/" + armCfg.name
			res.SetMetric("cyc_per_page/"+key, arm.CycPerPage)
			res.SetMetric("fast_frac/"+key, tierFastFrac(st))
			res.SetMetric("promoted_pages/"+key, float64(st.PromotedPages))
			res.SetMetric("demoted_pages/"+key, float64(st.DemotedPages))
		}
	}
	return res, nil
}
