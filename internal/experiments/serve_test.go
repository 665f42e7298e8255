package experiments

import (
	"testing"

	"sfbuf/internal/kernel"
	"sfbuf/internal/workloads"
)

// TestServeEconomy is the serve benchmark's acceptance criterion, stated
// at the canonical scale: a thousand concurrent connections over the
// canonical lossy network, deterministic seed.  The adaptive send-window
// policy must land within 10% of the best fixed window on p99 mapping
// latency and beat the worst fixed window by at least 2x; the sharded
// engine must beat the global-lock cache on both walks and shootdown
// rounds per byte served.
func TestServeEconomy(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical-scale serving sweep; skipped with -short")
	}
	results := make(map[string]*workloads.ServeResult)
	for _, v := range ServeVariants() {
		r, err := RunServeVariant(v, ServeClients)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		results[v.Name] = r
		t.Logf("%-9s p50=%-8d p99=%-9d p999=%-9d walks/MB=%-8.0f rounds/MB=%-7.1f stalls=%-7d rexmit=%-6d done=%d/%d bytes=%dMB",
			v.Name, r.P50, r.P99, r.P999, r.WalksPerMB, r.RoundsPerMB,
			r.Serve.Stalls, r.Serve.Retransmits, r.Completed, r.Requests, r.BytesReceived>>20)
		if r.Completed == 0 {
			t.Fatalf("%s: no requests completed", v.Name)
		}
	}

	adaptive := results["adaptive"]
	best, worst := int64(0), int64(0)
	var bestName, worstName string
	for _, name := range []string{"fixed-2", "fixed-16", "fixed-64"} {
		p99 := results[name].P99
		if best == 0 || p99 < best {
			best, bestName = p99, name
		}
		if p99 > worst {
			worst, worstName = p99, name
		}
	}
	t.Logf("fixed sweep: best %s p99=%d, worst %s p99=%d, adaptive p99=%d",
		bestName, best, worstName, worst, adaptive.P99)

	// Within 10% of the best fixed window...
	if float64(adaptive.P99) > 1.10*float64(best) {
		t.Errorf("adaptive p99 %d is more than 10%% above best fixed (%s) %d",
			adaptive.P99, bestName, best)
	}
	// ...and at least 2x better than the worst.
	if 2*adaptive.P99 > worst {
		t.Errorf("adaptive p99 %d is not 2x better than worst fixed (%s) %d",
			adaptive.P99, worstName, worst)
	}

	// Engine comparison: sharded (adaptive arm) vs the global-lock cache
	// on per-byte mapping economy.
	global := results["global"]
	if adaptive.WalksPerMB >= global.WalksPerMB {
		t.Errorf("sharded walks/MB %.1f not below global %.1f",
			adaptive.WalksPerMB, global.WalksPerMB)
	}
	if adaptive.RoundsPerMB >= global.RoundsPerMB {
		t.Errorf("sharded rounds/MB %.2f not below global %.2f",
			adaptive.RoundsPerMB, global.RoundsPerMB)
	}
}

// TestServeDeterminism replays the adaptive arm twice at a reduced scale
// and requires byte-identical outcomes: same packet-schedule hash, same
// serve counters, same per-request latency sample, same walk totals.
func TestServeDeterminism(t *testing.T) {
	run := func() *workloads.ServeResult {
		r, err := RunServeVariant(ServeVariants()[0], 250)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hash diverged: %#x != %#x", a.TraceHash, b.TraceHash)
	}
	if a.Serve != b.Serve {
		t.Fatalf("serve stats diverged:\n%+v\n%+v", a.Serve, b.Serve)
	}
	if a.Net != b.Net {
		t.Fatalf("net stats diverged:\n%+v\n%+v", a.Net, b.Net)
	}
	if a.BytesReceived != b.BytesReceived || a.Completed != b.Completed {
		t.Fatalf("outcome diverged: %d/%d bytes vs %d/%d",
			a.BytesReceived, a.Completed, b.BytesReceived, b.Completed)
	}
	if len(a.Latencies) != len(b.Latencies) {
		t.Fatalf("latency sample sizes diverged: %d != %d", len(a.Latencies), len(b.Latencies))
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatalf("latency sample %d diverged: %d != %d", i, a.Latencies[i], b.Latencies[i])
		}
	}
	if a.Walks != b.Walks || a.Rounds != b.Rounds || a.Locks != b.Locks {
		t.Fatalf("counters diverged: walks %d/%d rounds %d/%d locks %d/%d",
			a.Walks, b.Walks, a.Rounds, b.Rounds, a.Locks, b.Locks)
	}
}

// TestServeGolden pins the canonical adaptive run at ServeSeed.  The
// packet schedule (trace hash, events, bytes) was captured on the commit
// before the vnet scheduler, the mbuf layout and the checksum kernel were
// rewritten for host speed: those are host-side changes, and the
// self-comparing TestServeDeterminism cannot see a scheduler that
// reorders ties the same way twice.  The mapping figures (P99, P99.9,
// rounds, walks) were re-captured when the run pool's age-bound launder
// and the send window's ceiling recovery left; P99.9 is pinned so a
// drift that moves only the tail fails here too.
func TestServeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical-scale serving run; skipped with -short")
	}
	r, err := RunServeVariant(ServeVariants()[0], ServeClients)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		TraceHash      uint64
		P50, P99, P999 int64
		Rounds, Walks  uint64
		Completed      int
		BytesReceived  int64
		Events         uint64
	}
	got := golden{r.TraceHash, r.P50, r.P99, r.P999, r.Rounds, r.Walks, r.Completed, r.BytesReceived, r.Net.Events}
	want := golden{TraceHash: 0xad9fc9ffcaab7c8a, P50: 10660, P99: 268580, P999: 796430, Rounds: 284, Walks: 61526,
		Completed: 1938, BytesReceived: 259239297, Events: 562180}
	if got != want {
		t.Fatalf("canonical serve run moved:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeHomingEconomy is the gain that keeps Config.Homing: the
// canonical serve run on BootServe's kernel split into two sockets, with
// the mapping state homed per socket (Auto) and flat (Off).  Homing must
// cut the adaptive window's p99.9 mapping latency by at least 5%, and
// both arms must complete the same requests.  Homing pays for it on the
// median: the homed p50 is about 13% above the flat one.
func TestServeHomingEconomy(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical-scale serving runs; skipped with -short")
	}
	if raceEnabled {
		t.Skip("canonical-scale serving runs are too slow under -race")
	}
	run := func(homing kernel.Tri) *workloads.ServeResult {
		cfg := serveKernelConfig(kernel.CacheSharded)
		cfg.Sockets, cfg.Homing = 2, homing
		k, err := kernel.Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := workloads.RunServe(k, ServeCanonicalConfig(ServeClients, 0))
		if err != nil {
			t.Fatalf("homing %v: %v", homing, err)
		}
		t.Logf("homing %-4v p50=%-7d p99=%-8d p999=%-8d done=%d/%d",
			homing, r.P50, r.P99, r.P999, r.Completed, r.Requests)
		return r
	}
	homed, flat := run(kernel.Auto), run(kernel.Off)
	if float64(homed.P999) > 0.95*float64(flat.P999) {
		t.Errorf("homed p99.9 %d is not 5%% below flat %d", homed.P999, flat.P999)
	}
	if homed.Completed != flat.Completed {
		t.Errorf("homed completed %d requests, flat %d", homed.Completed, flat.Completed)
	}
}
