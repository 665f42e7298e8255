package kernel

// Boot-time wiring tests for the background reclaim-and-laundering daemon
// (Config.Daemon; TestPlanGolden pins where it is enabled) and the
// Kernel.Idle passthrough.

import (
	"testing"

	"sfbuf/internal/arch"
)

// TestDaemonWiring: a kernel without a daemon reports zero daemon stats
// and idles as a pure clock advance.
func TestDaemonWiring(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"sharded default", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32}},
		{"explicitly on", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Daemon: On}},
		{"switched off", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Daemon: Off}},
		{"global-lock figure engine", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Cache: CacheGlobal}},
		{"original kernel", Config{Platform: arch.XeonMP(), Mapper: OriginalKernel,
			PhysPages: 256}},
		{"amd64 direct map", Config{Platform: arch.OpteronMP(), Mapper: SFBuf,
			PhysPages: 256}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Boot(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.DaemonEnabled(); got != k.Plan.Daemon {
				t.Fatalf("DaemonEnabled = %v, plan says %v", got, k.Plan.Daemon)
			}
			if !k.Plan.Daemon {
				if s := k.DaemonStats(); s.Passes != 0 || s.RefillRounds != 0 ||
					s.RefilledBufs != 0 || s.TrimmedWindows != 0 ||
					len(s.RefilledBySocket) != 0 || len(s.TrimmedBySocket) != 0 {
					t.Fatalf("DaemonStats = %+v without a daemon, want zero", s)
				}
				// Idle must still be safe (pure clock advance).
				if spent := k.Idle(0, 1000); spent != 0 {
					t.Fatalf("Idle spent %d with no daemon, want 0", spent)
				}
			}
		})
	}
}

// TestKernelIdleRunsDaemon: after churn leaves the cache dirty, an idle
// tick must run the daemon on the idling CPU and charge its work against
// the tick.
func TestKernelIdleRunsDaemon(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf,
		Backed: true, PhysPages: 512, CacheEntries: 32})
	ctx := k.Ctx(0)
	pages, err := k.M.Phys.AllocN(32)
	if err != nil {
		t.Fatal(err)
	}
	bufs, err := k.Map.AllocBatch(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
			t.Fatal(err)
		}
	}
	k.Map.FreeBatch(ctx, bufs)

	spent := k.Idle(0, 1<<20)
	if spent <= 0 {
		t.Fatalf("Idle spent %d cycles, want > 0 (refill work was available)", spent)
	}
	ds := k.DaemonStats()
	if ds.Passes == 0 || ds.RefilledBufs == 0 {
		t.Fatalf("daemon stats = %+v, want a pass with refilled buffers", ds)
	}
	c := k.M.Counters()
	if got := c.DaemonCycles.Load(); got != int64(spent) {
		t.Fatalf("DaemonCycles = %d, want %d (the tick's charge)", got, spent)
	}
	if got := c.IdleCycles.Load(); got != 1<<20 {
		t.Fatalf("IdleCycles = %d, want the full tick", got)
	}
}
