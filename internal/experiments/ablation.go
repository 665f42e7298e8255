package experiments

import (
	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
)

func init() { register("ablation", RunAblation) }

// ablationConfig names one variant of the i386 mapping cache.
type ablationConfig struct {
	label string
	mode  sfbuf.Ablation
}

var ablationConfigs = []ablationConfig{
	{"full design", 0},
	{"no accessed-bit optimization", sfbuf.AblateAccessedBit},
	{"no shared sf_bufs", sfbuf.AblateSharing},
	{"no lazy teardown (eager unmap)", sfbuf.AblateLazyTeardown},
	{"all three ablated", sfbuf.AblateAccessedBit | sfbuf.AblateSharing | sfbuf.AblateLazyTeardown},
}

// RunAblation quantifies the contribution of each i386 design choice
// (DESIGN.md section 5) on a Xeon-MP running a pipe-like reuse workload:
// a working set that fits the cache, mapped, touched and unmapped in
// rotation from two CPUs.
func RunAblation(o Options) (*Result, error) {
	res := &Result{
		ID:      "ablation",
		Title:   "i386 mapping-cache design choices, ablated (Xeon-MP, reuse workload)",
		Columns: []string{"Variant", "cycles/op", "local inv/op", "remote inv/op", "hit rate"},
		Notes: []string{
			"each operation = sf_buf_alloc + one mapped access + sf_buf_free over a cache-resident working set",
			"not a paper figure: this quantifies why Section 4.2's design is shaped the way it is",
		},
	}
	iters := o.scaleInt(200000, 2000)
	const entries = 64
	const npages = 48 // fits the cache: the reuse regime the design targets

	for _, cfg := range ablationConfigs {
		o.logf("  ablation: %s", cfg.label)
		k, err := kernel.Boot(kernel.Config{
			// Figure reproduction pins the paper's cache engine.
			Cache:        kernel.CacheGlobal,
			Platform:     arch.XeonMP(),
			Mapper:       kernel.SFBuf,
			PhysPages:    npages + 64,
			CacheEntries: entries,
		})
		if err != nil {
			return nil, err
		}
		i386 := k.Map.(*sfbuf.I386)
		i386.Ablate(cfg.mode)
		pages, err := k.M.Phys.AllocN(npages)
		if err != nil {
			return nil, err
		}
		// Warm, then measure.
		runOps := func(ctxID, n, stride int) error {
			ctx := k.Ctx(ctxID)
			for i := 0; i < n; i++ {
				pg := pages[(i*stride)%len(pages)]
				var flags sfbuf.Flags
				if i%4 == 0 {
					flags = sfbuf.Private
				}
				b, err := i386.Alloc(ctx, pg, flags)
				if err != nil {
					return err
				}
				if _, err := k.Pmap.Translate(ctx, b.KVA(), i%2 == 0); err != nil {
					return err
				}
				i386.Free(ctx, b)
			}
			return nil
		}
		if err := runOps(0, npages*2, 1); err != nil {
			return nil, err
		}
		k.Reset()
		half := iters / 2
		if err := runOps(0, half, 7); err != nil {
			return nil, err
		}
		if err := runOps(1, iters-half, 5); err != nil {
			return nil, err
		}

		total := float64(iters)
		c := k.M.SnapshotCounters()
		cyc := float64(k.M.TotalCycles()) / total
		res.AddRow(label("reuse: "+cfg.label), num(cyc, "%.0f").as("cycles_per_op/"+cfg.label),
			num(float64(c.LocalInv)/total, "%.3f").as("local_per_op/"+cfg.label),
			num(float64(c.RemoteInvIssued)/total, "%.3f").as("remote_per_op/"+cfg.label),
			num(i386.Stats().HitRate(), percentVerb))
	}

	// Regime B: miss-heavy with untouched mappings — the checksum-offload
	// send pattern where the accessed-bit optimization is the whole
	// ballgame (DMA reads the pages; the CPU never does).
	for _, cfg := range []ablationConfig{ablationConfigs[0], ablationConfigs[1]} {
		o.logf("  ablation (miss regime): %s", cfg.label)
		k, err := kernel.Boot(kernel.Config{
			// Figure reproduction pins the paper's cache engine.
			Cache:        kernel.CacheGlobal,
			Platform:     arch.XeonMP(),
			Mapper:       kernel.SFBuf,
			PhysPages:    2*entries + 64,
			CacheEntries: entries,
		})
		if err != nil {
			return nil, err
		}
		i386 := k.Map.(*sfbuf.I386)
		i386.Ablate(cfg.mode)
		pages, err := k.M.Phys.AllocN(2 * entries) // twice the cache: ~100% misses
		if err != nil {
			return nil, err
		}
		ctx := k.Ctx(0)
		warm := func(n int) error {
			for i := 0; i < n; i++ {
				b, err := i386.Alloc(ctx, pages[i%len(pages)], 0)
				if err != nil {
					return err
				}
				i386.Free(ctx, b)
			}
			return nil
		}
		if err := warm(2 * entries); err != nil {
			return nil, err
		}
		k.Reset()
		if err := warm(iters); err != nil {
			return nil, err
		}
		total := float64(iters)
		c := k.M.SnapshotCounters()
		cyc := float64(k.M.TotalCycles()) / total
		res.AddRow(label("untouched misses: "+cfg.label),
			num(cyc, "%.0f").as("miss_cycles_per_op/"+cfg.label),
			num(float64(c.LocalInv)/total, "%.3f").as("miss_local_per_op/"+cfg.label),
			num(float64(c.RemoteInvIssued)/total, "%.3f"), num(i386.Stats().HitRate(), percentVerb))
	}
	return res, nil
}
