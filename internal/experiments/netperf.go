package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/netstack"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/workloads"
)

func init() {
	register("fig11", func(o Options) (*Result, error) { return runNetperfBandwidth(o, netstack.MTULarge, "fig11") })
	register("fig12", func(o Options) (*Result, error) { return runNetperfBandwidth(o, netstack.MTUSmall, "fig12") })
	register("fig13", func(o Options) (*Result, error) { return runNetperfInvalidations(o, netstack.MTULarge, "fig13") })
	register("fig14", func(o Options) (*Result, error) { return runNetperfInvalidations(o, netstack.MTUSmall, "fig14") })
}

// netperfRun moves 64 MB through a loopback connection with zero-copy
// 64 KB sends at the given MTU.
func netperfRun(o Options, plat arch.Platform, mk kernel.MapperKind, mtu int) (measurement, error) {
	key := fmt.Sprintf("netperf/%s/%v/%d/%g", plat.Name, mk, mtu, o.Scale)
	return memoizedRun(key, func() (measurement, error) { return netperfRun1(o, plat, mk, mtu) })
}

func netperfRun1(o Options, plat arch.Platform, mk kernel.MapperKind, mtu int) (measurement, error) {
	k, err := kernel.Boot(kernel.Config{
		// Figure reproduction pins the paper's cache engine.
		Cache:        kernel.CacheGlobal,
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    1024,
		Backed:       false,
		CacheEntries: sfbuf.DefaultI386Entries,
	})
	if err != nil {
		return measurement{}, err
	}
	cfg := workloads.DefaultNetperf(k, mtu)
	cfg.TotalBytes = o.scaleInt64(cfg.TotalBytes, 2<<20)
	cfg.ChecksumOffload = true // the testbed NICs offload; Figures 19-20 vary this

	// Warmup round, then measure.
	warm := cfg
	warm.TotalBytes = int64(cfg.SendSize) * 4
	if _, err := workloads.Netperf(k, warm); err != nil {
		return measurement{}, err
	}
	k.Reset()

	moved, err := workloads.Netperf(k, cfg)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{
		plat:    plat,
		elapsed: serializedCycles(k.M),
		bytes:   moved,
	}
	m.snapshotInto(k)
	return m, nil
}

func netperfTitle(mtu int) string {
	if mtu >= netstack.MTULarge {
		return "Netperf throughput, large MTU (16 KB)"
	}
	return "Netperf throughput, small MTU (1500 B)"
}

// netperfArms are the two kernels' netperf runs at one MTU.
func netperfArms(o Options, mtu int) []arm {
	return kernelArms("mbitps", func(p arch.Platform, mk kernel.MapperKind) (measurement, error) {
		return netperfRun(o, p, mk, mtu)
	})
}

func runNetperfBandwidth(o Options, mtu int, id string) (*Result, error) {
	return throughputTable(&Result{
		ID:      id,
		Title:   netperfTitle(mtu) + " in Mbits/s",
		Columns: []string{"Platform", "sf_buf Mbits/s", "original Mbits/s", "improvement"},
		Notes: []string{
			"paper: improvements range ~4%..34%, larger with the large MTU",
			"(with a larger MTU, less time goes to segmentation, so mapping costs weigh more)",
		},
	}, o, measurement.mbitps, netperfArms(o, mtu))
}

func runNetperfInvalidations(o Options, mtu int, id string) (*Result, error) {
	return invalidationTable(&Result{
		ID:      id,
		Title:   netperfTitle(mtu) + ": local and remote TLB invalidations issued",
		Columns: []string{"Platform", "Kernel", "Local", "Remote"},
	}, o, netperfArms(o, mtu))
}
