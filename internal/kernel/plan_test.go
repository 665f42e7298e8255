package kernel

// The plan golden: what Boot resolves for every configuration an
// experiment, bench/ workload or test boots, plus one toggle per Tri
// switch on each engine.  The expected rows were captured on the parent
// of the Plan refactor from the per-call resolvers it replaced
// (Config.Uses*, Kernel.UseVectored/UseVectoredSend/UseRuns,
// contigAdaptive, mapCapacityPages, DaemonEnabled, MigrationEnabled, the
// tier keeper, Phys.Buddy/Tiered, the consumer page window and
// PhysContigAlign), and are checked in, not regenerated.  Daemon, Migrate
// and TierHints carry what the kernel actually booted: the old
// UsesMigration/UsesTierHints said yes on engines whose constructors then
// returned nil (amd64, the global cache over a forced buddy pool), and the
// plan no longer asks for what cannot run.  Rows have lost only the
// configurations of deleted engines and the two color fields only those
// engines set.

import (
	"fmt"
	"strings"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/sfbuf"
)

type planCase struct {
	name string
	cfg  Config
}

func planGoldenCases() []planCase {
	engines := []planCase{
		{"xeon-sharded", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 2048, CacheEntries: 64}},
		{"xeon-global", Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 2048, CacheEntries: 64}},
		{"xeon-original", Config{Platform: arch.XeonMP(), Mapper: OriginalKernel, PhysPages: 2048, CacheEntries: 64}},
		{"opteron", Config{Platform: arch.OpteronMP(), Mapper: SFBuf, PhysPages: 2048}},
		{"numa2", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 2048, CacheEntries: 64, Sockets: 2}},
	}
	toggles := []struct {
		name string
		set  func(*Config)
	}{
		{"", func(*Config) {}},
		{"contig-on", func(c *Config) { c.Contig = On }},
		{"contig-off", func(c *Config) { c.Contig = Off }},
		{"buddy-on", func(c *Config) { c.PhysBuddy = On }},
		{"buddy-off", func(c *Config) { c.PhysBuddy = Off }},
		{"daemon-on", func(c *Config) { c.Daemon = On }},
		{"daemon-off", func(c *Config) { c.Daemon = Off }},
		{"reserv-on", func(c *Config) { c.Reserv = On }},
		{"reserv-off", func(c *Config) { c.Reserv = Off }},
		{"migrate-on", func(c *Config) { c.Migrate = On }},
		{"migrate-off", func(c *Config) { c.Migrate = Off }},
		{"tiers", func(c *Config) { c.Tiers = 2 }},
		{"hints-on", func(c *Config) { c.Tiers = 2; c.TierHints = On }},
		{"hints-off", func(c *Config) { c.Tiers = 2; c.TierHints = Off }},
		{"homing-on", func(c *Config) { c.Homing = On }},
		{"homing-off", func(c *Config) { c.Homing = Off }},
	}
	var cs []planCase
	for _, e := range engines {
		for _, tg := range toggles {
			c := e.cfg
			tg.set(&c)
			name := e.name
			if tg.name != "" {
				name += "/" + tg.name
			}
			cs = append(cs, planCase{name, c})
		}
	}
	for _, p := range arch.Evaluation() {
		for _, mk := range []MapperKind{SFBuf, OriginalKernel} {
			cs = append(cs, planCase{"fig/" + p.Name + "/" + mk.String(),
				Config{Platform: p, Mapper: mk, Cache: CacheGlobal, PhysPages: 1024, CacheEntries: sfbuf.DefaultI386Entries}})
		}
	}
	xh := arch.XeonMPHTT()
	return append(cs,
		planCase{"fig19/6k", Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 1024, CacheEntries: 6 * 1024}},
		planCase{"fig19/original", Config{Platform: arch.XeonMP(), Mapper: OriginalKernel, Cache: CacheGlobal, PhysPages: 1024}},
		planCase{"ablation", Config{Platform: arch.XeonMP(), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 1088, CacheEntries: 1024}},
		planCase{"adaptive", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*160 + 256, CacheEntries: 160}},
		planCase{"contig/buddy", Config{Platform: xh, Mapper: SFBuf, PhysPages: 32 * 512, CacheEntries: 2*512 + 64}},
		planCase{"contig/lifo", Config{Platform: xh, Mapper: SFBuf, PhysPages: 32 * 512, CacheEntries: 2*512 + 64, PhysBuddy: Off}},
		planCase{"defrag/on", Config{Platform: xh, Mapper: SFBuf, PhysPages: 16 * 512, CacheEntries: 2*512 + 64, PhysBuddy: On, Reserv: On, Migrate: On}},
		planCase{"defrag/off", Config{Platform: xh, Mapper: SFBuf, PhysPages: 16 * 512, CacheEntries: 2*512 + 64, PhysBuddy: On, Reserv: On, Migrate: Off}},
		planCase{"numa/homed-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 2}},
		planCase{"numa/striped-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 2, Homing: Off}},
		planCase{"numa/homed-4s", Config{Platform: arch.XeonNUMA(4, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 4}},
		planCase{"numa/striped-4s", Config{Platform: arch.XeonNUMA(4, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 4, Homing: Off}},
		planCase{"reclaim/daemon", Config{Platform: xh, Mapper: SFBuf, PhysPages: 2048, CacheEntries: 256}},
		planCase{"reclaim/on-demand", Config{Platform: xh, Mapper: SFBuf, PhysPages: 2048, CacheEntries: 256, Daemon: Off}},
		planCase{"reclaim/daemon-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 2048, CacheEntries: 256, Sockets: 2}},
		planCase{"scale/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/original", Config{Platform: xh, Mapper: OriginalKernel, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/small", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*64 + 128, CacheEntries: 64}},
		planCase{"serve/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8192, CacheEntries: 2304}},
		planCase{"serve/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8192, CacheEntries: 2304}},
		planCase{"tier/hinted", Config{Platform: xh, Mapper: SFBuf, PhysPages: 768, CacheEntries: 512, PhysBuddy: On, Reserv: Off, Tiers: 2, FastFraction: 0.125, TierHints: On}},
		planCase{"tier/oblivious", Config{Platform: xh, Mapper: SFBuf, PhysPages: 768, CacheEntries: 512, PhysBuddy: On, Reserv: Off, Tiers: 2, FastFraction: 0.125, TierHints: Off}},
		planCase{"bench/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*512 + 128, CacheEntries: 512}},
		planCase{"bench/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8*512 + 128, CacheEntries: 512}},
		planCase{"test/xeon-cache4", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256, CacheEntries: 4}},
		planCase{"test/xeon-cache16", Config{Platform: arch.XeonHTT(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16}},
		planCase{"test/xeon-6k", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 6 * 1024}},
		planCase{"test/xeon-default-cache", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256}},
		planCase{"test/opteron-original", Config{Platform: arch.OpteronMP(), Mapper: OriginalKernel, PhysPages: 64}},
		planCase{"test/daemon-explicit", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256, CacheEntries: 32, Daemon: On}},
		planCase{"test/numa2-global", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 256, CacheEntries: 32, Sockets: 2}},
		planCase{"test/numa2-original", Config{Platform: arch.XeonNUMA(2, 2), Mapper: OriginalKernel, PhysPages: 256, Sockets: 2}},
	)
}

// planGolden is the expected row per case: the plan's true switches in
// field order, then its sizes, the adaptive consumer's page window and
// PhysContigAlign for an 8-page and a superpage extent.
var planGolden = []struct{ name, want string }{
	{"xeon-sharded", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/contig-on", "buddy reserv daemon migrate batch batchsend runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/contig-off", "buddy reserv daemon migrate batch batchsend sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/buddy-on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/buddy-off", "daemon batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/daemon-on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/daemon-off", "buddy reserv migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/reserv-on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/reserv-off", "buddy daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/migrate-on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/migrate-off", "buddy reserv daemon batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/tiers", "buddy reserv tiered hints daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/hints-on", "buddy reserv tiered hints daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/hints-off", "buddy reserv tiered daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/homing-on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/homing-off", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/contig-on", "runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/contig-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/buddy-on", "buddy reserv sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/buddy-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/daemon-on", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/daemon-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/reserv-on", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/reserv-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/migrate-on", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/migrate-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/tiers", "tiered sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/hints-on", "tiered sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/hints-off", "tiered sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/homing-on", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/homing-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/contig-on", "batch runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/contig-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/buddy-on", "buddy reserv batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/buddy-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/daemon-on", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/daemon-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/reserv-on", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/reserv-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/migrate-on", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/migrate-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/tiers", "tiered batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/hints-on", "tiered batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/hints-off", "tiered batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/homing-on", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/homing-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"opteron", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/contig-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/contig-off", "buddy reserv batch batchsend sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/buddy-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/buddy-off", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/daemon-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/daemon-off", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/reserv-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/reserv-off", "buddy batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/migrate-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/migrate-off", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/tiers", "buddy reserv tiered batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/hints-on", "buddy reserv tiered batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/hints-off", "buddy reserv tiered batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/homing-on", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/homing-off", "buddy reserv batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"numa2", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/contig-on", "buddy reserv homed daemon migrate batch batchsend runs sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/contig-off", "buddy reserv homed daemon migrate batch batchsend sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/buddy-on", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/buddy-off", "homed daemon batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/daemon-on", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/daemon-off", "buddy reserv homed migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/reserv-on", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/reserv-off", "buddy homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/migrate-on", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/migrate-off", "buddy reserv homed daemon batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/tiers", "buddy reserv tiered hints homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/hints-on", "buddy reserv tiered hints homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/hints-off", "buddy reserv tiered homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/homing-on", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/homing-off", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"fig/Xeon-UP/sf_buf", "sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-UP/original", "batch sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-HTT/sf_buf", "sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-HTT/original", "batch sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-MP/sf_buf", "sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-MP/original", "batch sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-MP-HTT/sf_buf", "sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Xeon-MP-HTT/original", "batch sockets=1 cap=65536 window=4096 align=1/512"},
	{"fig/Opteron-MP/sf_buf", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"fig/Opteron-MP/original", "batch sockets=1 cap=0 window=4096 align=1/512"},
	{"fig19/6k", "sockets=1 cap=6144 window=4096 align=1/512"},
	{"fig19/original", "batch sockets=1 cap=65536 window=4096 align=1/512"},
	{"ablation", "sockets=1 cap=1024 window=1024 align=1/512"},
	{"adaptive", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=160 window=160 align=1/512"},
	{"contig/buddy", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=1088 window=1088 align=1/512"},
	{"contig/lifo", "daemon batch batchsend runs adaptive sockets=1 cap=1088 window=1088 align=1/512"},
	{"defrag/on", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=1088 window=1088 align=1/512"},
	{"defrag/off", "buddy reserv daemon batch batchsend runs adaptive sockets=1 cap=1088 window=1088 align=1/512"},
	{"numa/homed-2s", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"numa/striped-2s", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"numa/homed-4s", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=4 cap=256 window=256 align=1/512"},
	{"numa/striped-4s", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=4 cap=256 window=256 align=1/512"},
	{"reclaim/daemon", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=256 window=256 align=1/512"},
	{"reclaim/on-demand", "buddy reserv migrate batch batchsend runs adaptive sockets=1 cap=256 window=256 align=1/512"},
	{"reclaim/daemon-2s", "buddy reserv homed daemon migrate batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"scale/sharded", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=256 window=256 align=1/512"},
	{"scale/global", "sockets=1 cap=256 window=256 align=1/512"},
	{"scale/original", "batch sockets=1 cap=256 window=256 align=1/512"},
	{"scale/small", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"serve/sharded", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=2304 window=2304 align=1/512"},
	{"serve/global", "sockets=1 cap=2304 window=2304 align=1/512"},
	{"tier/hinted", "buddy tiered hints daemon migrate batch batchsend runs adaptive sockets=1 cap=512 window=512 align=1/512"},
	{"tier/oblivious", "buddy tiered daemon migrate batch batchsend runs adaptive sockets=1 cap=512 window=512 align=1/512"},
	{"bench/sharded", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=512 window=512 align=1/512"},
	{"bench/global", "sockets=1 cap=512 window=512 align=1/512"},
	{"test/xeon-cache4", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=4 window=4 align=1/512"},
	{"test/xeon-cache16", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=16 window=16 align=1/512"},
	{"test/xeon-6k", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=6144 window=4096 align=1/512"},
	{"test/xeon-default-cache", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=65536 window=4096 align=1/512"},
	{"test/opteron-original", "batch sockets=1 cap=0 window=4096 align=1/512"},
	{"test/daemon-explicit", "buddy reserv daemon migrate batch batchsend runs adaptive sockets=1 cap=32 window=32 align=1/512"},
	{"test/numa2-global", "sockets=2 cap=32 window=32 align=1/512"},
	{"test/numa2-original", "batch sockets=2 cap=65536 window=4096 align=1/512"},
}

// planRow renders k's plan as a golden row.
func planRow(k *Kernel) string {
	p := k.Plan
	var b strings.Builder
	for _, f := range []struct {
		name string
		on   bool
	}{
		{"buddy", p.Buddy}, {"reserv", p.Reservation}, {"tiered", p.Tiered},
		{"hints", p.TierHints}, {"homed", p.Homed}, {"daemon", p.Daemon},
		{"migrate", p.Migrate}, {"batch", p.Batch}, {"batchsend", p.BatchSend},
		{"runs", p.Runs}, {"adaptive", p.Adaptive},
	} {
		if f.on {
			b.WriteString(f.name + " ")
		}
	}
	fmt.Fprintf(&b, "sockets=%d cap=%d window=%d align=%d/%d",
		p.Sockets, p.MapCapacity,
		k.Consumer("golden").pageWindow, k.PhysContigAlign(8), k.PhysContigAlign(512))
	return b.String()
}

func TestPlanGolden(t *testing.T) {
	cases := planGoldenCases()
	if len(cases) != len(planGolden) {
		t.Fatalf("%d cases, %d golden rows", len(cases), len(planGolden))
	}
	for i, c := range cases {
		g := planGolden[i]
		if g.name != c.name {
			t.Fatalf("row %d: golden %q, case %q", i, g.name, c.name)
		}
		k, err := Boot(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := planRow(k); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, g.want)
		}
		// The booted machine is what the plan says.
		p := k.Plan
		if k.M.Phys.Buddy() != p.Buddy || k.M.Phys.Tiered() != p.Tiered ||
			k.DaemonEnabled() != p.Daemon || k.MigrationEnabled() != p.Migrate ||
			k.TierHintsEnabled() != p.TierHints || k.M.Sockets() != p.Sockets ||
			k.M.Phys.PhysStats().Sockets != p.Sockets {
			t.Errorf("%s: booted machine disagrees with plan %+v", c.name, p)
		}
	}
}

// TestBootRejectsBadConfig: an invalid configuration is Boot's error, not
// a panic from deep inside machine or frame-pool construction.
func TestBootRejectsBadConfig(t *testing.T) {
	base := Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256, CacheEntries: 32}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"sockets do not divide CPUs", func(c *Config) { c.Sockets = 3 }},
		{"negative sockets", func(c *Config) { c.Sockets = -2 }},
		{"negative PhysPages", func(c *Config) { c.PhysPages = -5 }},
		{"negative CacheEntries", func(c *Config) { c.CacheEntries = -1 }},
		{"negative Tiers", func(c *Config) { c.Tiers = -1 }},
		{"FastFraction below 0", func(c *Config) { c.Tiers, c.FastFraction = 2, -0.5 }},
		{"FastFraction above 1", func(c *Config) { c.Tiers, c.FastFraction = 2, 1.5 }},
		{"platform without CPUs", func(c *Config) { c.Platform = arch.Platform{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Boot panicked: %v", r)
				}
			}()
			if k, err := Boot(cfg); err == nil {
				t.Fatalf("Boot accepted %+v (booted %s)", cfg, k.Name())
			}
		})
	}
}

// TestPlanIgnoresPostBootCfgEdits: the plan, not Kernel.Cfg, is what the
// kernel and its consumers read after Boot.
func TestPlanIgnoresPostBootCfgEdits(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 2048, CacheEntries: 64})
	want := k.Plan
	k.Cfg.Contig, k.Cfg.PhysBuddy, k.Cfg.Cache = Off, Off, CacheGlobal
	k.Cfg.CacheEntries, k.Cfg.Platform = 8, arch.OpteronMP()
	if k.Plan != want {
		t.Fatalf("plan moved: %+v, want %+v", k.Plan, want)
	}
	c := k.Consumer("late")
	if !c.PolicyStats().Adaptive || c.pageWindow != 64 {
		t.Errorf("consumer created after the edit: adaptive %v window %d, want true/64",
			c.PolicyStats().Adaptive, c.pageWindow)
	}
	pages, err := k.M.Phys.AllocN(2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.UseRuns(k.Ctx(0), pages) {
		t.Error("adaptive consumer must start on the run path despite Cfg.Contig = Off")
	}
}

func TestTriString(t *testing.T) {
	for tri, want := range map[Tri]string{Auto: "auto", On: "on", Off: "off"} {
		if got := tri.String(); got != want {
			t.Errorf("Tri(%d).String() = %q, want %q", tri, got, want)
		}
	}
}
