package experiments

// The virtual-internet serving macro-benchmark ("serve"): a thousand
// concurrent connections stream a heavy-tailed corpus through a lossy,
// reordering network, and the mapping-window policy is the variable.
// Five variants run the identical workload (same seed, same packet
// schedule shape, same client behaviour):
//
//   adaptive  — sharded engine, per-connection kernel.SendWindow sizing
//   fixed-2   — sharded engine, every window pinned at 2 pages
//   fixed-16  — sharded engine, pinned at the historical VectoredRun
//   fixed-64  — sharded engine, pinned at the adaptive ceiling
//   global    — the paper's Section 4.2 global-lock cache (per-page
//               mappings: no native batched send path)
//
// The canonical parameters are sized so the fixed arms fail in opposite
// directions, the same construction as the adaptive-contiguity
// acceptance workloads: a thousand 16-page windows overcommit the
// mapping cache several times over, so fixed-16 and fixed-64 spend their
// tails in NoWait stall backoffs, while fixed-2 never stalls but pays an
// install per two pages on documents that average dozens of pages.  The
// adaptive policy must track each connection's observed appetite — slow
// readers shrink toward the floor, fast readers grow to their ACK burst
// — and land within 10% of the best fixed arm on p99 mapping latency
// while beating the worst by at least 2x (TestServeEconomy).  The
// sharded engine must also beat the global-lock cache on walks and
// shootdown rounds per byte served.

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/workloads"
)

// Canonical serve-benchmark parameters, shared by the experiment, the
// economy test and the repo benchmark's serve workload so they cannot
// drift apart.
const (
	// ServeClients is the concurrent-connection count the acceptance
	// criterion is stated at; ServeRequestsPerConn the requests each
	// connection serves.
	ServeClients         = 1000
	ServeRequestsPerConn = 2
	// ServeFiles and ServeFootprint shape the corpus: few enough files
	// that documents average dozens of pages, so the 64-page ceiling and
	// the 2-page floor both get exercised on real transfers.
	ServeFiles     = 60
	ServeFootprint = 16 << 20
	// ServeEntries sizes the mapping cache: comfortably above the
	// adaptive policy's steady demand (slow connections near the 2-page
	// floor, fast ones near their 8-page ACK burst), several times below
	// a thousand fixed 16- or 64-page windows.
	ServeEntries = 2304
	// ServePhysPages covers the corpus disk (~20 MB) plus slack.
	ServePhysPages = 8192
	// ServeSeed drives the packet schedule, the corpus, and the
	// behaviour draws; the determinism suite replays it.
	ServeSeed = 20260807
	// Network and client-mix shape: WAN-ish loss and reordering, a
	// majority of slow readers, a churn tail that aborts mid-transfer,
	// and a slice of zero-copy (user-memory) sends.
	ServeLossPct      = 5
	ServeReorderPct   = 10
	ServeSlowFrac     = 0.7
	ServeChurnFrac    = 0.05
	ServeZeroCopyFrac = 0.15
	// ServeStagger ramps connections up over ~2M cycles, well inside one
	// slow transfer, so the thousand connections overlap.
	ServeStagger = 2000
)

// ServeVariant is one arm of the sweep.
type ServeVariant struct {
	// Name labels the arm ("adaptive", "fixed-N", "global").
	Name string
	// Cache selects the engine; FixedWindow pins the mapping window
	// (zero lets the kernel's per-connection policy size it).
	Cache       kernel.CachePolicy
	FixedWindow int
}

// ServeVariants returns the sweep in report order.
func ServeVariants() []ServeVariant {
	return []ServeVariant{
		{Name: "adaptive", Cache: kernel.CacheSharded},
		{Name: "fixed-2", Cache: kernel.CacheSharded, FixedWindow: 2},
		{Name: "fixed-16", Cache: kernel.CacheSharded, FixedWindow: 16},
		{Name: "fixed-64", Cache: kernel.CacheSharded, FixedWindow: 64},
		{Name: "global", Cache: kernel.CacheGlobal},
	}
}

// BootServe boots the serve-benchmark kernel under one cache policy.
func BootServe(cache kernel.CachePolicy) (*kernel.Kernel, error) {
	return kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        cache,
		PhysPages:    ServePhysPages,
		Backed:       true,
		CacheEntries: ServeEntries,
	})
}

// ServeCanonicalConfig returns the canonical workload scaled by clients
// (the full criterion runs ServeClients; benchmarks run smaller).
func ServeCanonicalConfig(clients int, fixedWindow int) workloads.ServeConfig {
	return workloads.ServeConfig{
		Clients:          clients,
		RequestsPerConn:  ServeRequestsPerConn,
		Files:            ServeFiles,
		Footprint:        ServeFootprint,
		LossPct:          ServeLossPct,
		ReorderPct:       ServeReorderPct,
		SlowFrac:         ServeSlowFrac,
		ChurnFrac:        ServeChurnFrac,
		ZeroCopyFrac:     ServeZeroCopyFrac,
		StaggerCycles:    ServeStagger,
		FixedWindowPages: fixedWindow,
		Seed:             ServeSeed,
	}
}

// RunServeVariant executes one arm at the given client count.
func RunServeVariant(v ServeVariant, clients int) (*workloads.ServeResult, error) {
	k, err := BootServe(v.Cache)
	if err != nil {
		return nil, err
	}
	res, err := workloads.RunServe(k, ServeCanonicalConfig(clients, v.FixedWindow))
	if err != nil {
		return nil, fmt.Errorf("serve %s: %w", v.Name, err)
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return nil, fmt.Errorf("serve %s: leaked mappings: allocs %d != frees %d",
			v.Name, st.Allocs, st.Frees)
	}
	return res, nil
}

func init() {
	register("serve", runServeExperiment)
}

// runServeExperiment sweeps every variant at the canonical (scaled)
// client count and tabulates the mapping economy.
func runServeExperiment(opt Options) (*Result, error) {
	clients := opt.scaleInt(ServeClients, 32)
	res := &Result{
		ID: "serve",
		Title: fmt.Sprintf("virtual-internet serving: %d connections, %d%% loss, %d%% reorder, seed %d",
			clients, ServeLossPct, ServeReorderPct, ServeSeed),
		Columns: []string{"variant", "p50 map lat", "p99 map lat", "p99.9 map lat",
			"walks/MB", "rounds/MB", "stalls", "rexmit", "completed"},
		Notes: []string{
			"mapping latency = map+release cycles + NoWait stall backoff, per request (network time excluded)",
			"walks and shootdown rounds divided by client-received megabytes",
		},
	}
	for _, v := range ServeVariants() {
		opt.logf("serve: running %s (%d clients)...", v.Name, clients)
		r, err := RunServeVariant(v, clients)
		if err != nil {
			return nil, err
		}
		res.AddRow(label(v.Name), count(r.P50), count(r.P99).as("p99_"+v.Name), count(r.P999),
			num(r.WalksPerMB, "%.0f").as("walks_per_mb_"+v.Name),
			num(r.RoundsPerMB, "%.1f").as("rounds_per_mb_"+v.Name),
			count(r.Serve.Stalls).as("stalls_"+v.Name), count(r.Serve.Retransmits),
			label(fmt.Sprintf("%d/%d", r.Completed, r.Requests)))
		res.SetMetric("bytes_"+v.Name, float64(r.BytesReceived))
	}
	return res, nil
}
