package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/workloads"
)

func init() {
	register("fig2", RunFig2)
	register("fig3", RunFig3)
}

// pipeRun executes bw_pipe on one platform under one kernel and returns
// the measurement.  Runs are memoized: Figures 2 and 3 report the same
// measurement.
func pipeRun(o Options, plat arch.Platform, mk kernel.MapperKind) (measurement, error) {
	key := fmt.Sprintf("pipe/%s/%v/%g", plat.Name, mk, o.Scale)
	return memoizedRun(key, func() (measurement, error) { return pipeRun1(o, plat, mk) })
}

func pipeRun1(o Options, plat arch.Platform, mk kernel.MapperKind) (measurement, error) {
	k, err := kernel.Boot(kernel.Config{
		// Figure reproduction pins the paper's cache engine.
		Cache:        kernel.CacheGlobal,
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    512,
		Backed:       false,
		CacheEntries: sfbuf.DefaultI386Entries,
	})
	if err != nil {
		return measurement{}, err
	}
	cfg := workloads.DefaultBWPipe(k)
	cfg.TotalBytes = o.scaleInt64(50<<20, 1<<20)

	// Warmup pass primes the mapping cache's cold buffers, then measure.
	warm := cfg
	warm.TotalBytes = int64(cfg.ChunkSize) * 4
	if _, err := workloads.BWPipe(k, warm); err != nil {
		return measurement{}, err
	}
	k.Reset()

	moved, err := workloads.BWPipe(k, cfg)
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

// pipeArms are the two kernels' bw_pipe runs.
func pipeArms(o Options) []arm {
	return kernelArms("mbps", func(p arch.Platform, mk kernel.MapperKind) (measurement, error) {
		return pipeRun(o, p, mk)
	})
}

// RunFig2 reproduces Figure 2: pipe bandwidth in MB/s for the lmbench
// bw_pipe benchmark (50 MB in 64 KB chunks) under the sf_buf and original
// kernels on all five platforms.
func RunFig2(o Options) (*Result, error) {
	return throughputTable(&Result{
		ID:      "fig2",
		Title:   "Pipe bandwidth in MB/s (lmbench bw_pipe, 50 MB in 64 KB chunks)",
		Columns: []string{"Platform", "sf_buf MB/s", "original MB/s", "improvement"},
		Notes: []string{
			"paper improvements: Xeon-UP +67%, Xeon-HTT +129%, Xeon-MP +168%, Xeon-MP-HTT +113%, Opteron-MP +22%",
		},
	}, o, measurement.mbps, pipeArms(o))
}

// RunFig3 reproduces Figure 3: local and remote TLB invalidations issued
// during the pipe experiment.
func RunFig3(o Options) (*Result, error) {
	return invalidationTable(&Result{
		ID:      "fig3",
		Title:   "Local and remote TLB invalidations issued for the pipe experiment",
		Columns: []string{"Platform", "Kernel", "Local", "Remote"},
		Notes: []string{
			"paper: sf_buf kernel eliminates invalidations (near-100% mapping cache hits);",
			"original kernel issues one global invalidation per page transferred",
		},
	}, o, pipeArms(o))
}
