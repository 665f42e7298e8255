package main

import (
	"fmt"
	"math"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/netstack"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
	"sfbuf/internal/workloads"
)

// figScale pins the figure workload's size relative to the paper's: the
// formulas below are internal/experiments', so cache-to-footprint ratios
// are the paper's.  The drift guard holds the bw_pipe cells to
// experiments.Get("fig2") at this scale.
const (
	figScale      = 0.1
	figScaleQuick = 0.005
)

// paperPipePct is the paper's bw_pipe improvement per platform, in
// arch.Evaluation() order: the only per-platform reference the repo
// holds (internal/experiments/pipe.go).
var paperPipePct = []float64{67, 129, 168, 113, 22}

func scaled(scale float64, n, floor int64) int64 {
	if v := int64(float64(n) * scale); v > floor {
		return v
	}
	return floor
}

// figCell is one kernel arm of one phase on one platform.
type figCell struct {
	phase  string // "bw_pipe", "dd_fit", "dd_exceed", "postmark", "netperf_large", "netperf_small"
	plat   arch.Platform
	arm    string // "sf_buf", "sf_buf private", "sf_buf shared", "original"
	units  int64  // bytes moved; PostMark: transactions
	cycles cycles.Cycles
}

func (c figCell) sf() bool { return c.arm != "original" }

// rate is the cell's bandwidth (or transaction rate) in units per cycle.
func (c figCell) rate() float64 { return float64(c.units) / float64(c.cycles) }

// figKernel boots a figure kernel: the paper's engines only.
func figKernel(tr *tracer, plat arch.Platform, arm string, physPages, entries int, backed bool) (*kernel.Kernel, error) {
	mk := kernel.SFBuf
	if arm == "original" {
		mk = kernel.OriginalKernel
	}
	return bootConfig(tr, kernel.Config{
		Cache:        kernel.CacheGlobal,
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    physPages,
		Backed:       backed,
		CacheEntries: entries,
	})
}

// runFigures runs the paper's engines (global-lock sf_buf cache against
// the original kernel) through the paper's workloads: bw_pipe on the five
// evaluation platforms; dd of a disk that fits and one that exceeds the
// mapping cache, PostMark, and netperf at both MTUs on Xeon-MP-HTT and
// Opteron-MP.  Each cell boots its own kernel; only the workload call is
// measured.
func runFigures(e *env) (*rep, []figCell, error) {
	r := newRep()
	tr := e.tr
	scale := figScale
	if e.quick {
		scale = figScaleQuick
	}
	var cells []figCell
	// measure runs one cell's workload call as a measured phase.  want is
	// the configured transfer in the phase's unit (bytes; PostMark:
	// transactions) and call returns the units and the bytes it moved.
	measure := func(k *kernel.Kernel, sp spanName, c figCell, want int64, call func() (units, bytes int64, err error)) error {
		k.Reset()
		var before probe
		if tr != nil && c.sf() {
			before = takeProbe(k)
		}
		spanUnits := want / vm.PageSize
		if c.phase == "postmark" {
			spanUnits = want
		}
		ph := r.beginPhase(k)
		s := tr.begin(sp, len(cells), int(spanUnits))
		units, bytes, err := call()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", c.phase, c.plat.Name, c.arm, err)
		}
		ph.end(bytes/vm.PageSize, c.sf())
		if units != want {
			r.fail("%s %s %s: moved %d, configured %d", c.phase, c.plat.Name, c.arm, units, want)
		}
		c.units, c.cycles = units, k.M.TotalCycles()
		if tr != nil && c.sf() {
			r.count(k, before)
		}
		r.live(k)
		cells = append(cells, c)
		return nil
	}
	// moved adapts a workload that returns the bytes it moved.
	moved := func(n int64, err error) (int64, int64, error) { return n, n, err }

	// bw_pipe: 50 MB (scaled) in 64 KB chunks, all five platforms.
	pipeBytes := scaled(scale, 50<<20, 1<<20)
	for _, plat := range arch.Evaluation() {
		for _, arm := range []string{"sf_buf", "original"} {
			k, err := figKernel(tr, plat, arm, 512, sfbuf.DefaultI386Entries, false)
			if err != nil {
				return nil, nil, err
			}
			cfg := workloads.DefaultBWPipe(k)
			cfg.TotalBytes = pipeBytes
			warm := cfg
			warm.TotalBytes = int64(cfg.ChunkSize) * 4
			if _, err := workloads.BWPipe(k, warm); err != nil {
				return nil, nil, err
			}
			want := pipeBytes / int64(cfg.ChunkSize) * int64(cfg.ChunkSize)
			err = measure(k, spPipeBWPipe, figCell{phase: "bw_pipe", plat: plat, arm: arm}, want,
				func() (int64, int64, error) { return moved(workloads.BWPipe(k, cfg)) })
			if err != nil {
				return nil, nil, err
			}
		}
	}

	two := []arch.Platform{arch.XeonMPHTT(), arch.OpteronMP()}
	entries := int(scaled(scale, sfbuf.DefaultI386Entries, 2048))

	// dd: the disk is half the cache's reach (fits) or twice it (exceeds).
	for _, shape := range []struct {
		phase string
		sp    spanName
		disk  int64
	}{
		{"dd_fit", spMemdiskDDFit, int64(entries) / 2 * vm.PageSize},
		{"dd_exceed", spMemdiskDDExceed, int64(entries) * 2 * vm.PageSize},
	} {
		for _, plat := range two {
			for _, arm := range []string{"sf_buf private", "sf_buf shared", "original"} {
				k, err := figKernel(tr, plat, arm, int(shape.disk>>vm.PageShift)+128, entries, false)
				if err != nil {
					return nil, nil, err
				}
				d, err := memdisk.New(k, shape.disk)
				if err != nil {
					return nil, nil, err
				}
				d.SetPrivateMappings(arm == "sf_buf private")
				if err := workloads.PopulateDisk(k.Ctx(0), d, 64<<10); err != nil {
					return nil, nil, err
				}
				err = measure(k, shape.sp, figCell{phase: shape.phase, plat: plat, arm: arm}, shape.disk,
					func() (int64, int64, error) {
						return moved(workloads.DD(k, d, workloads.DDConfig{BlockSize: 64 << 10}))
					})
				if err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// PostMark: the paper's largest configuration, scaled; the seed drives
	// the file sizes and the transaction mix.
	pm := workloads.PostMarkConfig3()
	pm.InitialFiles = int(scaled(scale, int64(pm.InitialFiles), 100))
	pm.Transactions = int(scaled(scale, int64(pm.Transactions), 300))
	pm.Seed = int64(e.seed)
	pmDisk := scaled(scale, 512<<20, 16<<20)
	for _, plat := range two {
		for _, arm := range []string{"sf_buf", "original"} {
			k, err := figKernel(tr, plat, arm, int(pmDisk>>vm.PageShift)+256, entries, true)
			if err != nil {
				return nil, nil, err
			}
			d, err := memdisk.New(k, pmDisk)
			if err != nil {
				return nil, nil, err
			}
			fsys, err := fs.Mkfs(k.Ctx(0), k, d, pm.InitialFiles*2+64)
			if err != nil {
				return nil, nil, err
			}
			if err := workloads.PostMarkInit(k.Ctx(0), fsys, pm); err != nil {
				return nil, nil, err
			}
			err = measure(k, spFsPostmark, figCell{phase: "postmark", plat: plat, arm: arm}, int64(pm.Transactions),
				func() (int64, int64, error) {
					res, err := workloads.PostMark(k, fsys, pm)
					return int64(res.Transactions), res.BytesRead + res.BytesWritten, err
				})
			if err != nil {
				return nil, nil, err
			}
		}
	}

	// netperf: 64 MB (scaled) of zero-copy 64 KB sends over loopback.
	for _, mtu := range []struct {
		phase string
		mtu   int
	}{{"netperf_large", netstack.MTULarge}, {"netperf_small", netstack.MTUSmall}} {
		for _, plat := range two {
			for _, arm := range []string{"sf_buf", "original"} {
				k, err := figKernel(tr, plat, arm, 1024, sfbuf.DefaultI386Entries, false)
				if err != nil {
					return nil, nil, err
				}
				cfg := workloads.DefaultNetperf(k, mtu.mtu)
				cfg.TotalBytes = scaled(scale, cfg.TotalBytes, 2<<20)
				if _, err := netperf(k, cfg, 4); err != nil {
					return nil, nil, err
				}
				sends := int(cfg.TotalBytes / int64(cfg.SendSize))
				err = measure(k, spNetstackNetperf, figCell{phase: mtu.phase, plat: plat, arm: arm}, int64(sends)*int64(cfg.SendSize),
					func() (int64, int64, error) { return moved(netperf(k, cfg, sends)) })
				if err != nil {
					return nil, nil, err
				}
			}
		}
	}

	r.ops = int64(len(cells))
	r.speedup, r.paperErr = figureSummary(cells)
	r.note = append(r.note, pipeNote(cells))
	return r, cells, nil
}

// netperf is workloads.Netperf (zero-copy 64 KB sends over loopback,
// checksum offload on, as the testbed NICs) driven in lock-step from the
// one driver goroutine: a send exactly fills the 64 KB socket buffer
// without blocking, then the receiver drains it.  workloads.Netperf runs
// sender and receiver as two goroutines, and how many Recv system calls a
// send costs then depends on how the Go scheduler interleaves them: its
// cycle totals wobble by a few parts per million from run to run, which
// a workload whose point is bit-identity cannot carry.
func netperf(k *kernel.Kernel, cfg workloads.NetperfConfig, sends int) (int64, error) {
	st := netstack.NewStack(k, cfg.MTU)
	st.ChecksumOffload = true
	c := st.NewConn()
	sctx, rctx := k.Ctx(cfg.SenderCPU), k.Ctx(cfg.ReceiverCPU)
	um, err := vm.AllocUserMem(k.M.Phys, cfg.SendSize)
	if err != nil {
		return 0, err
	}
	defer um.Release()
	buf := make([]byte, cfg.SendSize)
	var moved int64
	for i := 0; i < sends; i++ {
		if err := c.SendZeroCopy(sctx, um, 0, cfg.SendSize); err != nil {
			return moved, err
		}
		for got := 0; got < cfg.SendSize; {
			n, err := c.Recv(rctx, buf)
			if err != nil {
				return moved, err
			}
			got += n
			moved += int64(n)
		}
	}
	c.Close(sctx)
	return moved, nil
}

// original finds the baseline cell of c's phase and platform.
func original(cells []figCell, c figCell) figCell {
	for _, o := range cells {
		if o.phase == c.phase && o.plat.Name == c.plat.Name && !o.sf() {
			return o
		}
	}
	panic("bench: figure cell without an original-kernel arm")
}

// pipeImprovement returns bw_pipe's improvement over the original kernel
// per platform, in percent, computed as experiments.RunFig2 computes it.
func pipeImprovement(cells []figCell) []float64 {
	var out []float64
	for _, c := range cells {
		if c.phase == "bw_pipe" && c.sf() {
			o := original(cells, c)
			sf := cycles.MBps(c.units, c.cycles, c.plat.FreqGHz)
			orig := cycles.MBps(o.units, o.cycles, o.plat.FreqGHz)
			out = append(out, (sf/orig-1)*100)
		}
	}
	return out
}

// figureSummary returns the geometric mean over sf_buf cells of bandwidth
// over the original kernel's, and the mean absolute error of the bw_pipe
// improvements against the paper's, in percentage points.
func figureSummary(cells []figCell) (speedup, paperErr float64) {
	var logSum float64
	n := 0
	for _, c := range cells {
		if c.sf() {
			logSum += math.Log(c.rate() / original(cells, c).rate())
			n++
		}
	}
	for i, got := range pipeImprovement(cells) {
		paperErr += math.Abs(got - paperPipePct[i])
	}
	return math.Exp(logSum / float64(n)), paperErr / float64(len(paperPipePct))
}

func pipeNote(cells []figCell) string {
	s := "bw_pipe improvement, simulated vs paper:"
	imp := pipeImprovement(cells)
	for i, plat := range arch.Evaluation() {
		s += fmt.Sprintf(" %s %+.0f%%/%+.0f%%", plat.Name, imp[i], paperPipePct[i])
	}
	return s
}
