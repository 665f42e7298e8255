package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/workloads"
)

func init() {
	register("fig15", func(o Options) (*Result, error) { return runWebThroughput(o, "NASA", "fig15") })
	register("fig16", func(o Options) (*Result, error) { return runWebThroughput(o, "Rice", "fig16") })
	register("fig17", func(o Options) (*Result, error) { return runWebInvalidations(o, "NASA", "fig17") })
	register("fig18", func(o Options) (*Result, error) { return runWebInvalidations(o, "Rice", "fig18") })
	register("fig19", RunFig19)
	register("fig20", RunFig20)
}

// webTrace synthesizes the named trace at the option's scale.
func webTrace(o Options, name string) *workloads.Trace {
	switch name {
	case "NASA":
		// 258.7 MB footprint, ~50k requests at full scale.
		return workloads.SynthesizeTrace("NASA",
			o.scaleInt64(258_700_000, 8<<20),
			o.scaleInt(10000, 100),
			o.scaleInt(50000, 400),
			1.2, 1994)
	case "Rice":
		// 1.1 GB footprint, ~30k requests at full scale.
		return workloads.SynthesizeTrace("Rice",
			o.scaleInt64(1_100_000_000, 16<<20),
			o.scaleInt(20000, 150),
			o.scaleInt(30000, 300),
			1.15, 2002)
	}
	panic("unknown trace " + name)
}

// webRun serves the trace on one platform under one kernel configuration.
func webRun(o Options, plat arch.Platform, mk kernel.MapperKind, trace *workloads.Trace, cacheEntries int, offload bool) (measurement, error) {
	key := fmt.Sprintf("web/%s/%v/%s/%d/%v/%g", plat.Name, mk, trace.Name, cacheEntries, offload, o.Scale)
	return memoizedRun(key, func() (measurement, error) {
		return webRun1(o, plat, mk, trace, cacheEntries, offload)
	})
}

func webRun1(o Options, plat arch.Platform, mk kernel.MapperKind, trace *workloads.Trace, cacheEntries int, offload bool) (measurement, error) {
	diskPages := int(workloads.CorpusDiskSize(trace)>>12) + 256
	k, err := kernel.Boot(kernel.Config{
		// Figure reproduction pins the paper's cache engine.
		Cache:     kernel.CacheGlobal,
		Platform:  plat,
		Mapper:    mk,
		PhysPages: diskPages + 1024,
		// The filesystem needs real storage for its metadata.
		Backed:       true,
		CacheEntries: cacheEntries,
	})
	if err != nil {
		return measurement{}, err
	}
	ctx := k.Ctx(0)
	corpus, err := workloads.BuildCorpus(ctx, k, trace)
	if err != nil {
		return measurement{}, err
	}
	k.Reset()

	cfg := workloads.DefaultWeb(k)
	cfg.ChecksumOffload = offload
	wres, err := workloads.WebServer(k, corpus, trace, cfg)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{
		plat:    plat,
		elapsed: parallelCycles(k.M),
		bytes:   wres.BytesServed,
		events:  int64(wres.Requests),
	}
	m.snapshotInto(k)
	corpus.Disk.Release()
	return m, nil
}

// webArms are the two kernels serving the trace with checksum offload
// on and a scaled 64K-entry cache.
func webArms(o Options, trace *workloads.Trace) []arm {
	entries := o.scaleInt(sfbuf.DefaultI386Entries, 2048)
	return kernelArms("mbitps", func(p arch.Platform, mk kernel.MapperKind) (measurement, error) {
		return webRun(o, p, mk, trace, entries, true)
	})
}

func runWebThroughput(o Options, traceName, id string) (*Result, error) {
	trace := webTrace(o, traceName)
	note := "paper: Opteron-MP +14%; Xeons up to +7%"
	if traceName == "NASA" {
		note = "paper: Opteron-MP +6%; Xeons up to +7%"
	}
	return throughputTable(&Result{
		ID:    id,
		Title: fmt.Sprintf("Web server throughput in Mbits/s, %s workload (footprint %d MB)", traceName, trace.Footprint>>20),
		Columns: []string{
			"Platform", "sf_buf Mbits/s", "original Mbits/s", "improvement",
		},
		Notes: []string{note},
	}, o, measurement.mbitps, webArms(o, trace))
}

func runWebInvalidations(o Options, traceName, id string) (*Result, error) {
	return invalidationTable(&Result{
		ID:      id,
		Title:   fmt.Sprintf("Local and remote TLB invalidations issued, %s workload", traceName),
		Columns: []string{"Platform", "Kernel", "Local", "Remote"},
	}, o, webArms(o, webTrace(o, traceName)))
}

// fig19Configs are the cache-size sweep configurations of Figures 19-20:
// the Xeon-MP serving the NASA workload with a 64K-entry cache, a
// 6K-entry cache, and the original kernel, each with TCP checksum
// offloading enabled and disabled.
type fig19Config struct {
	label   string
	mapper  kernel.MapperKind
	entries int // at full scale
}

var fig19Configs = []fig19Config{
	{"64K cache entries", kernel.SFBuf, 64 * 1024},
	{"6K cache entries", kernel.SFBuf, 6 * 1024},
	{"no cache (original)", kernel.OriginalKernel, 0},
}

// RunFig19 reproduces Figure 19: NASA workload throughput on the Xeon-MP
// with varying cache sizes and checksum offloading on/off.
func RunFig19(o Options) (*Result, error) {
	trace := webTrace(o, "NASA")
	res := &Result{
		ID:      "fig19",
		Title:   "NASA workload on Xeon-MP: throughput vs sf_buf cache size and checksum offloading (Mbits/s)",
		Columns: []string{"Config", "offload on", "offload off", "hit rate (on)"},
		Notes: []string{
			"paper: shrinking the cache 64K->6K drops the hit rate ~100%->82% with little throughput loss;",
			"checksum offloading keeps PTE accessed bits clear, so cache misses skip TLB invalidations",
		},
	}
	plat := arch.XeonMP()
	for _, cfg := range fig19Configs {
		o.logf("  fig19: %s", cfg.label)
		entries := 0
		if cfg.entries > 0 {
			entries = o.scaleInt(cfg.entries, cfg.entries/64)
		}
		on, err := webRun(o, plat, cfg.mapper, trace, entries, true)
		if err != nil {
			return nil, err
		}
		off, err := webRun(o, plat, cfg.mapper, trace, entries, false)
		if err != nil {
			return nil, err
		}
		hit := num(on.hitRate, percentVerb)
		if cfg.mapper != kernel.SFBuf {
			hit = Cell{Text: "n/a", Value: on.hitRate}
		}
		res.AddRow(label(cfg.label), auto(on.mbitps()).as("mbitps_on/"+cfg.label),
			auto(off.mbitps()).as("mbitps_off/"+cfg.label), hit.as("hitrate_on/"+cfg.label))
	}
	return res, nil
}

// RunFig20 reproduces Figure 20: the invalidation counts behind Figure 19.
func RunFig20(o Options) (*Result, error) {
	trace := webTrace(o, "NASA")
	res := &Result{
		ID:      "fig20",
		Title:   "NASA workload on Xeon-MP: TLB invalidations vs cache size and checksum offloading",
		Columns: []string{"Config", "Checksum", "Local", "Remote"},
	}
	plat := arch.XeonMP()
	for _, cfg := range fig19Configs {
		o.logf("  fig20: %s", cfg.label)
		entries := 0
		if cfg.entries > 0 {
			entries = o.scaleInt(cfg.entries, cfg.entries/64)
		}
		for _, offload := range []bool{true, false} {
			m, err := webRun(o, plat, cfg.mapper, trace, entries, offload)
			if err != nil {
				return nil, err
			}
			checksum := "off"
			if offload {
				checksum = "on"
			}
			key := cfg.label + "/offload=" + checksum
			res.AddRow(label(cfg.label), label(checksum),
				count(m.localInv).as("local/"+key), count(m.remoteInv).as("remote/"+key))
		}
	}
	return res, nil
}
