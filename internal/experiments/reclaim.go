package experiments

import (
	"fmt"
	"sort"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kernel"
)

func init() {
	register("reclaim", RunReclaim)
}

// reclaimIdleTick is the idle stretch between bursts in the idle-spike
// trials: long enough for the daemon to refill every freelist and the
// overflow pool from a fully-inactive cache (a few reclaim rounds), short
// against any real traffic lull.
const reclaimIdleTick cycles.Cycles = 1 << 18

// RunReclaim measures what the background reclaim daemon buys the first
// allocation after a traffic lull — the tail, not the mean.  Each trial
// references the entire cache (every buffer ends inactive with teardown
// debt), frees it, idles, then times a burst of allocations for pages the
// cache has never seen, which must be served from clean stock or pay a
// synchronous reclaim round.  With the daemon, the idle tick refills the
// clean freelists ahead of demand; without it (the paper's on-demand
// reclaim, Config.Daemon = Off) the first alloc of every burst
// eats an LRU harvest plus a forced shootdown flush.  Reported per arm and
// probe size: p50/p99/p999/mean first-alloc-after-idle latency in
// simulated cycles.  A steady-state row pair then runs the scale
// experiment's vectored churn (no idle) on both arms: the daemon must
// cost nothing when the machine is busy.
func RunReclaim(o Options) (*Result, error) {
	res := &Result{
		ID:    "reclaim",
		Title: "Background reclaim: first-alloc-after-idle latency, daemon vs. on-demand (Xeon 4-way)",
		Columns: []string{"arm", "probe pages", "trials", "p50 cyc", "p99 cyc",
			"p999 cyc", "mean cyc", "steady cyc/op"},
		Notes: []string{
			"each trial fills and frees the whole cache, idles one tick, then times a burst of never-mapped pages",
			"on-demand = Config.Daemon off: reclaim only on allocation-miss shortage (the paper's behaviour)",
			"steady rows run the scale experiment's vectored churn with no idle: daemon wiring must cost nothing while busy",
			"daemon-2s runs the daemon arm on a 2-package NUMA Xeon with socket-homed state (Config.Sockets=2)",
		},
	}

	entries := o.scaleInt(256, 64)
	trials := o.scaleInt(240, 48)

	for _, arm := range []struct {
		name    string
		daemon  kernel.Tri
		plat    arch.Platform
		sockets int
	}{
		{"daemon", kernel.Auto, arch.XeonMPHTT(), 1},
		{"on-demand", kernel.Off, arch.XeonMPHTT(), 1},
		// The same daemon arm on a 2-package machine with socket-homed
		// state: the refill must ride idle time there too, each package's
		// daemon restocking from its own socket's frames.
		{"daemon-2s", kernel.Auto, arch.XeonNUMA(2, 2), 2},
	} {
		for _, probe := range []int{1, ScaleBatch} {
			lats, err := idleSpikeTrials(arm.plat, arm.sockets, entries, trials, probe, arm.daemon)
			if err != nil {
				return nil, fmt.Errorf("reclaim %s/%d: %w", arm.name, probe, err)
			}
			p50 := percentileCycles(lats, 0.50)
			p99 := percentileCycles(lats, 0.99)
			p999 := percentileCycles(lats, 0.999)
			var sum cycles.Cycles
			for _, l := range lats {
				sum += l
			}
			mean := float64(sum) / float64(len(lats))
			res.Rows = append(res.Rows, []string{
				arm.name, fmt.Sprintf("%d", probe), fmt.Sprintf("%d", len(lats)),
				fmt.Sprintf("%d", p50), fmt.Sprintf("%d", p99),
				fmt.Sprintf("%d", p999), fmt.Sprintf("%.0f", mean), "-",
			})
			key := fmt.Sprintf("%s/%d", arm.name, probe)
			res.SetMetric("p50/"+key, float64(p50))
			res.SetMetric("p99/"+key, float64(p99))
			res.SetMetric("p999/"+key, float64(p999))
			res.SetMetric("mean/"+key, mean)
		}

		// Steady state: the same engine under continuous vectored churn,
		// no idle ticks — the daemon never runs, and must cost nothing.
		cycOp, err := steadyChurn(o, arm.plat, arm.sockets, entries, arm.daemon)
		if err != nil {
			return nil, fmt.Errorf("reclaim steady %s: %w", arm.name, err)
		}
		res.Rows = append(res.Rows, []string{
			arm.name + " steady", "-", "-", "-", "-", "-", "-",
			fmt.Sprintf("%.1f", cycOp),
		})
		res.SetMetric("steady_cyc_op/"+arm.name, cycOp)
	}
	return res, nil
}

// idleSpikeTrials runs the fill/free/idle/probe loop on one arm and
// returns the per-trial probe latencies.  The machine's socket topology
// is a parameter, not an assumption: sockets > 1 boots the partitioned
// pool and socket-homed state.  The workload is single-CPU and
// deterministic: every trial leaves the cache in the same state (all
// buffers referenced by the fill, then all inactive), so the latency
// distribution is a property of the arm, not of scheduling.
func idleSpikeTrials(plat arch.Platform, sockets, entries, trials, probe int, daemon kernel.Tri) ([]cycles.Cycles, error) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     plat,
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    entries + trials*probe + 256,
		CacheEntries: entries,
		Daemon:       daemon,
		Sockets:      sockets,
	})
	if err != nil {
		return nil, err
	}
	ctx := k.Ctx(0)
	working, err := k.M.Phys.AllocN(entries)
	if err != nil {
		return nil, err
	}
	fresh, err := k.M.Phys.AllocN(trials * probe)
	if err != nil {
		return nil, err
	}

	lats := make([]cycles.Cycles, 0, trials)
	for t := 0; t < trials; t++ {
		// Fill: reference the whole cache, touching every mapping so the
		// eventual teardown owes real invalidations, then free it all —
		// zero clean stock, everything on the LRU inactive lists.
		bufs, err := k.Map.AllocBatch(ctx, working, 0)
		if err != nil {
			return nil, err
		}
		for _, b := range bufs {
			if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
				return nil, err
			}
		}
		k.Map.FreeBatch(ctx, bufs)

		// The lull.  With the daemon this refills clean stock against
		// idle time; without it the tick just advances the clock.
		k.Idle(0, reclaimIdleTick)

		// The spike: map pages the cache has never seen — guaranteed
		// misses that need clean buffers right now.
		pp := fresh[t*probe : (t+1)*probe]
		start := ctx.CPU().Cycles()
		if probe == 1 {
			b, err := k.Map.Alloc(ctx, pp[0], 0)
			if err != nil {
				return nil, err
			}
			lats = append(lats, ctx.CPU().Cycles()-start)
			k.Map.Free(ctx, b)
		} else {
			pb, err := k.Map.AllocBatch(ctx, pp, 0)
			if err != nil {
				return nil, err
			}
			lats = append(lats, ctx.CPU().Cycles()-start)
			k.Map.FreeBatch(ctx, pb)
		}
	}
	return lats, nil
}

// steadyChurn measures simulated cycles per page-op of the scale
// experiment's vectored churn on one arm, with no idle ticks.  Like the
// spike trials it takes the socket topology as a parameter.
func steadyChurn(o Options, plat arch.Platform, sockets, entries int, daemon kernel.Tri) (float64, error) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     plat,
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    8*entries + 128,
		CacheEntries: entries,
		Daemon:       daemon,
		Sockets:      sockets,
	})
	if err != nil {
		return 0, err
	}
	pages, err := k.M.Phys.AllocN(4 * entries)
	if err != nil {
		return 0, err
	}
	ops := o.scaleInt(120000, 4000)
	done, err := ChurnBatch(k, pages, ops, ScaleBatch)
	if err != nil {
		return 0, err
	}
	return float64(k.M.TotalCycles()) / float64(done), nil
}

// percentileCycles returns the q-th percentile (0 < q <= 1) of the
// latency sample by the nearest-rank method.
func percentileCycles(lats []cycles.Cycles, q float64) cycles.Cycles {
	if len(lats) == 0 {
		return 0
	}
	s := make([]cycles.Cycles, len(lats))
	copy(s, lats)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
