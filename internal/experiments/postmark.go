package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/workloads"
)

func init() {
	register("fig8", RunFig8)
	register("fig9", RunFig9)
	register("fig10", RunFig10)
}

// postmarkRun executes the paper's largest PostMark configuration (20,000
// files / 100,000 transactions on a 512 MB memory disk) on one platform
// under one kernel.
func postmarkRun(o Options, plat arch.Platform, mk kernel.MapperKind) (measurement, workloads.PostMarkResult, error) {
	type both struct {
		m  measurement
		pr workloads.PostMarkResult
	}
	key := fmt.Sprintf("postmark/%s/%v/%g", plat.Name, mk, o.Scale)
	v, err := memoizedRun(key, func() (both, error) {
		m, pr, err := postmarkRun1(o, plat, mk)
		return both{m, pr}, err
	})
	return v.m, v.pr, err
}

func postmarkRun1(o Options, plat arch.Platform, mk kernel.MapperKind) (measurement, workloads.PostMarkResult, error) {
	cfg := workloads.PostMarkConfig3()
	cfg.InitialFiles = o.scaleInt(cfg.InitialFiles, 100)
	cfg.Transactions = o.scaleInt(cfg.Transactions, 300)
	diskBytes := o.scaleInt64(512<<20, 16<<20)
	entries := o.scaleInt(sfbuf.DefaultI386Entries, 2048)

	k, err := kernel.Boot(kernel.Config{
		// Figure reproduction pins the paper's cache engine.
		Cache:     kernel.CacheGlobal,
		Platform:  plat,
		Mapper:    mk,
		PhysPages: int(diskBytes>>12) + 256,
		// PostMark needs real storage: the filesystem's metadata lives
		// on the disk.
		Backed:       true,
		CacheEntries: entries,
	})
	if err != nil {
		return measurement{}, workloads.PostMarkResult{}, err
	}
	d, err := memdisk.New(k, diskBytes)
	if err != nil {
		return measurement{}, workloads.PostMarkResult{}, err
	}
	ctx := k.Ctx(0)
	fsys, err := fs.Mkfs(ctx, k, d, cfg.InitialFiles*2+64)
	if err != nil {
		return measurement{}, workloads.PostMarkResult{}, err
	}
	if err := workloads.PostMarkInit(ctx, fsys, cfg); err != nil {
		return measurement{}, workloads.PostMarkResult{}, err
	}
	k.Reset()

	pr, err := workloads.PostMark(k, fsys, cfg)
	if err != nil {
		return measurement{}, pr, err
	}
	m := measurement{
		plat:    plat,
		elapsed: serializedCycles(k.M),
		bytes:   pr.BytesRead + pr.BytesWritten,
		events:  int64(pr.Transactions),
	}
	m.snapshotInto(k)
	d.Release()
	return m, pr, nil
}

// postmarkArms are the two kernels' PostMark runs.
func postmarkArms(o Options) []arm {
	return kernelArms("tps", func(p arch.Platform, mk kernel.MapperKind) (measurement, error) {
		m, _, err := postmarkRun(o, p, mk)
		return m, err
	})
}

// RunFig8 reproduces Figure 8: PostMark transactions per second with
// 20,000 files and 100,000 transactions.
func RunFig8(o Options) (*Result, error) {
	return throughputTable(&Result{
		ID:      "fig8",
		Title:   "PostMark transactions per second (20,000 files / 100,000 transactions)",
		Columns: []string{"Platform", "sf_buf TPS", "original TPS", "improvement"},
		Notes: []string{
			"paper: Opteron-MP +11%..+27%; Xeons +4%..+13%",
			"the ~150 MB footprint fits the Xeon mapping cache, so gains come from eliminated invalidations",
		},
	}, o, measurement.perSec, postmarkArms(o))
}

// RunFig9 reproduces Figure 9: PostMark read and write throughput.
func RunFig9(o Options) (*Result, error) {
	res := &Result{
		ID:      "fig9",
		Title:   "PostMark read/write throughput in MB/s (20,000 files / 100,000 transactions)",
		Columns: []string{"Platform", "Kernel", "Read MB/s", "Write MB/s"},
		Notes: []string{
			"paper: read and write bandwidth up by ~4%..17%",
		},
	}
	for _, plat := range o.platforms() {
		o.logf("  fig9: %s", plat.Name)
		for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
			m, pr, err := postmarkRun(o, plat, mk)
			if err != nil {
				return nil, err
			}
			secs := m.elapsed.Seconds(plat.FreqGHz)
			readMBps, writeMBps := 0.0, 0.0
			if secs > 0 {
				readMBps = float64(pr.BytesRead) / 1e6 / secs
				writeMBps = float64(pr.BytesWritten) / 1e6 / secs
			}
			key := plat.Name + "/" + mk.String()
			res.AddRow(label(plat.Name), label(mk.String()),
				auto(readMBps).as("read_mbps/"+key), auto(writeMBps).as("write_mbps/"+key))
		}
	}
	return res, nil
}

// RunFig10 reproduces Figure 10: TLB invalidations issued during PostMark.
func RunFig10(o Options) (*Result, error) {
	return invalidationTable(&Result{
		ID:      "fig10",
		Title:   "Local and remote TLB invalidations issued for PostMark",
		Columns: []string{"Platform", "Kernel", "Local", "Remote"},
		Notes: []string{
			"paper: sf_buf kernel eliminates invalidations (footprint fits the cache); original issues millions",
		},
	}, o, postmarkArms(o))
}
