package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/workloads"
)

func init() {
	register("fig4", func(o Options) (*Result, error) { return runDDBandwidth(o, 128<<20, "fig4") })
	register("fig5", func(o Options) (*Result, error) { return runDDInvalidations(o, 128<<20, "fig5") })
	register("fig6", func(o Options) (*Result, error) { return runDDBandwidth(o, 512<<20, "fig6") })
	register("fig7", func(o Options) (*Result, error) { return runDDInvalidations(o, 512<<20, "fig7") })
}

// ddConfig names one of the three disk-dump configurations of Figures
// 4-7, with its throughput metric-key stem.
type ddConfig struct {
	label, stem string
	mapper      kernel.MapperKind
	private     bool
}

var ddConfigs = []ddConfig{
	{"sf_buf: private", "private_mbps", kernel.SFBuf, true},
	{"sf_buf: shared", "shared_mbps", kernel.SFBuf, false},
	{"original", "original_mbps", kernel.OriginalKernel, false},
}

// ddArms are the three configurations' dd runs on a disk of diskBytes.
func ddArms(o Options, diskBytes int64) []arm {
	var arms []arm
	for _, cfg := range ddConfigs {
		arms = append(arms, arm{cfg.label, cfg.stem, func(p arch.Platform) (measurement, error) {
			return ddRun(o, p, cfg, diskBytes)
		}})
	}
	return arms
}

// ddRun performs one dd measurement: populate the disk (which doubles as
// cache warmup), reset counters, then read the disk sequentially in 64 KB
// blocks.
func ddRun(o Options, plat arch.Platform, cfg ddConfig, diskBytes int64) (measurement, error) {
	key := fmt.Sprintf("dd/%s/%s/%d/%g", plat.Name, cfg.label, diskBytes, o.Scale)
	return memoizedRun(key, func() (measurement, error) { return ddRun1(o, plat, cfg, diskBytes) })
}

func ddRun1(o Options, plat arch.Platform, cfg ddConfig, diskBytes int64) (measurement, error) {
	// Scale the mapping cache, then derive the disk from it so the
	// paper's exact ratios hold at every scale: the 128 MB disk is half
	// the 64K-entry cache's 256 MB reach (fits entirely); the 512 MB
	// disk is twice it (~100% misses).
	entries := o.scaleInt(sfbuf.DefaultI386Entries, 2048)
	var disk int64
	if diskBytes <= 128<<20 {
		disk = int64(entries) / 2 * 4096
	} else {
		disk = int64(entries) * 2 * 4096
	}

	k, err := kernel.Boot(kernel.Config{
		// Figure reproduction pins the paper's cache engine.
		Cache:        kernel.CacheGlobal,
		Platform:     plat,
		Mapper:       cfg.mapper,
		PhysPages:    int(disk>>12) + 128,
		Backed:       false,
		CacheEntries: entries,
	})
	if err != nil {
		return measurement{}, err
	}
	d, err := memdisk.New(k, disk)
	if err != nil {
		return measurement{}, err
	}
	d.SetPrivateMappings(cfg.private)

	ctx := k.Ctx(0)
	if err := workloads.PopulateDisk(ctx, d, 64<<10); err != nil {
		return measurement{}, err
	}
	k.Reset()

	moved, err := workloads.DD(k, d, workloads.DDConfig{BlockSize: 64 << 10})
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

func ddTitle(diskBytes int64) string {
	return fmt.Sprintf("Disk dump of a %d MB memory disk (64 KB blocks)", diskBytes>>20)
}

func runDDBandwidth(o Options, diskBytes int64, id string) (*Result, error) {
	note := "paper: disk exceeds the cache (~100% misses); the private option eliminates remote invalidations and wins on MP Xeons"
	if diskBytes == 128<<20 {
		note = "paper: disk fits the 64K-entry cache; private vs shared indistinguishable; up to +51% over original (Opteron +37%)"
	}
	return throughputTable(&Result{
		ID:      id,
		Title:   ddTitle(diskBytes) + ": bandwidth in MB/s",
		Columns: []string{"Platform", "sf_buf private", "sf_buf shared", "original", "best improvement"},
		Notes:   []string{note},
	}, o, measurement.mbps, ddArms(o, diskBytes))
}

func runDDInvalidations(o Options, diskBytes int64, id string) (*Result, error) {
	return invalidationTable(&Result{
		ID:      id,
		Title:   ddTitle(diskBytes) + ": local and remote TLB invalidations issued",
		Columns: []string{"Platform", "Config", "Local", "Remote"},
	}, o, ddArms(o, diskBytes))
}
