package kernel

// The plan golden: what Boot resolves for every configuration an
// experiment, bench/ workload or test boots, plus one toggle per Tri
// switch on each engine.  The expected rows were captured on the parent
// of the Plan refactor from the per-call resolvers it replaced
// (Config.Uses*, Kernel.UseVectored/UseVectoredSend/UseRuns,
// contigAdaptive, mapCapacityPages, DaemonEnabled, MigrationEnabled, the
// consumer page window and PhysContigAlign), and are checked in, not
// regenerated.  Rows have lost only the configurations of deleted engines
// and mechanisms, the fields only they set, and their toggles: the two
// color fields, the buddy flag and the LIFO contig row (every pool is the
// buddy allocator), the tiered and hints flags with their tiers/hints
// toggles and tier rows (tiered memory is gone), the reserv flag with its
// toggles (every pool reserves), the migrate flag with its toggles and
// defrag rows (frames never move), and the daemon flag with its toggles,
// the reclaim experiment's on-demand row and the explicit-daemon test row
// (there is no background daemon).  The two remaining reclaim rows pin
// the configurations that removed experiment booted.

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
		planCase{"numa/homed-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 2}},
		planCase{"numa/striped-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 2, Homing: Off}},
		planCase{"numa/homed-4s", Config{Platform: arch.XeonNUMA(4, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 4}},
		planCase{"numa/striped-4s", Config{Platform: arch.XeonNUMA(4, 2), Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256, Sockets: 4, Homing: Off}},
		planCase{"reclaim/daemon", Config{Platform: xh, Mapper: SFBuf, PhysPages: 2048, CacheEntries: 256}},
		planCase{"reclaim/daemon-2s", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, PhysPages: 2048, CacheEntries: 256, Sockets: 2}},
		planCase{"scale/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/original", Config{Platform: xh, Mapper: OriginalKernel, PhysPages: 8*256 + 128, CacheEntries: 256}},
		planCase{"scale/small", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*64 + 128, CacheEntries: 64}},
		planCase{"serve/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8192, CacheEntries: 2304}},
		planCase{"serve/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8192, CacheEntries: 2304}},
		planCase{"bench/sharded", Config{Platform: xh, Mapper: SFBuf, PhysPages: 8*512 + 128, CacheEntries: 512}},
		planCase{"bench/global", Config{Platform: xh, Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 8*512 + 128, CacheEntries: 512}},
		planCase{"test/xeon-cache4", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256, CacheEntries: 4}},
		planCase{"test/xeon-cache16", Config{Platform: arch.XeonHTT(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16}},
		planCase{"test/xeon-6k", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 6 * 1024}},
		planCase{"test/xeon-default-cache", Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256}},
		planCase{"test/opteron-original", Config{Platform: arch.OpteronMP(), Mapper: OriginalKernel, PhysPages: 64}},
		planCase{"test/numa2-global", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf, Cache: CacheGlobal, PhysPages: 256, CacheEntries: 32, Sockets: 2}},
		planCase{"test/numa2-original", Config{Platform: arch.XeonNUMA(2, 2), Mapper: OriginalKernel, PhysPages: 256, Sockets: 2}},
	)
}

// planGolden is the expected row per case: the plan's true switches in
// field order, then its sizes, the adaptive consumer's page window and
// PhysContigAlign for an 8-page and a superpage extent.
var planGolden = []struct{ name, want string }{
	{"xeon-sharded", "batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/contig-on", "batch batchsend runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/contig-off", "batch batchsend sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/homing-on", "batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-sharded/homing-off", "batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/contig-on", "runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/contig-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/homing-on", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-global/homing-off", "sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/contig-on", "batch runs sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/contig-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/homing-on", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"xeon-original/homing-off", "batch sockets=1 cap=64 window=64 align=1/512"},
	{"opteron", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/contig-on", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/contig-off", "batch batchsend sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/homing-on", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"opteron/homing-off", "batch batchsend runs sockets=1 cap=0 window=4096 align=1/512"},
	{"numa2", "homed batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/contig-on", "homed batch batchsend runs sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/contig-off", "homed batch batchsend sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/homing-on", "homed batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
	{"numa2/homing-off", "batch batchsend runs adaptive sockets=2 cap=64 window=64 align=1/512"},
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
	{"adaptive", "batch batchsend runs adaptive sockets=1 cap=160 window=160 align=1/512"},
	{"contig/buddy", "batch batchsend runs adaptive sockets=1 cap=1088 window=1088 align=1/512"},
	{"numa/homed-2s", "homed batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"numa/striped-2s", "batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"numa/homed-4s", "homed batch batchsend runs adaptive sockets=4 cap=256 window=256 align=1/512"},
	{"numa/striped-4s", "batch batchsend runs adaptive sockets=4 cap=256 window=256 align=1/512"},
	{"reclaim/daemon", "batch batchsend runs adaptive sockets=1 cap=256 window=256 align=1/512"},
	{"reclaim/daemon-2s", "homed batch batchsend runs adaptive sockets=2 cap=256 window=256 align=1/512"},
	{"scale/sharded", "batch batchsend runs adaptive sockets=1 cap=256 window=256 align=1/512"},
	{"scale/global", "sockets=1 cap=256 window=256 align=1/512"},
	{"scale/original", "batch sockets=1 cap=256 window=256 align=1/512"},
	{"scale/small", "batch batchsend runs adaptive sockets=1 cap=64 window=64 align=1/512"},
	{"serve/sharded", "batch batchsend runs adaptive sockets=1 cap=2304 window=2304 align=1/512"},
	{"serve/global", "sockets=1 cap=2304 window=2304 align=1/512"},
	{"bench/sharded", "batch batchsend runs adaptive sockets=1 cap=512 window=512 align=1/512"},
	{"bench/global", "sockets=1 cap=512 window=512 align=1/512"},
	{"test/xeon-cache4", "batch batchsend runs adaptive sockets=1 cap=4 window=4 align=1/512"},
	{"test/xeon-cache16", "batch batchsend runs adaptive sockets=1 cap=16 window=16 align=1/512"},
	{"test/xeon-6k", "batch batchsend runs adaptive sockets=1 cap=6144 window=4096 align=1/512"},
	{"test/xeon-default-cache", "batch batchsend runs adaptive sockets=1 cap=65536 window=4096 align=1/512"},
	{"test/opteron-original", "batch sockets=1 cap=0 window=4096 align=1/512"},
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
		{"homed", p.Homed},
		{"batch", p.Batch}, {"batchsend", p.BatchSend}, {"runs", p.Runs},
		{"adaptive", p.Adaptive},
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
		// The booted machine is what the plan says, and every pool holds
		// superpage reservation watermarks.
		p := k.Plan
		order, _ := k.M.Phys.Reservation()
		if k.M.Sockets() != p.Sockets || k.M.Phys.PhysStats().Sockets != p.Sockets ||
			order == 0 {
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
	k.Cfg.Contig, k.Cfg.Cache = Off, CacheGlobal
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
