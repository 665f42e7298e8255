package sfbuf

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
	"sfbuf/internal/netstack"
	"sfbuf/internal/pipe"
	"sfbuf/internal/sendfile"
	"sfbuf/internal/vm"
)

// extentGoldenEngines are the engines whose consumer paths the golden
// pins: the sharded i386 cache under each Contig position, the paper's
// global-lock cache, the original kernel on both pmaps and the amd64
// direct map.
var extentGoldenEngines = []struct {
	name string
	cfg  kernel.Config
}{
	{"i386-sharded-auto", kernel.Config{Platform: arch.XeonMP(), Mapper: kernel.SFBuf}},
	{"i386-sharded-on", kernel.Config{Platform: arch.XeonMP(), Mapper: kernel.SFBuf, Contig: kernel.On}},
	{"i386-sharded-off", kernel.Config{Platform: arch.XeonMP(), Mapper: kernel.SFBuf, Contig: kernel.Off}},
	{"i386-global", kernel.Config{Platform: arch.XeonMP(), Mapper: kernel.SFBuf, Cache: kernel.CacheGlobal}},
	{"original-i386", kernel.Config{Platform: arch.XeonMP(), Mapper: kernel.OriginalKernel}},
	{"original-amd64", kernel.Config{Platform: arch.OpteronMP(), Mapper: kernel.OriginalKernel}},
	{"amd64", kernel.Config{Platform: arch.OpteronMP(), Mapper: kernel.SFBuf}},
}

// extentGoldenScenarios drive each consumer that maps multi-page windows.
// over selects the over-capacity run: a 4-entry cache, which the pipe,
// memdisk and sendfile windows exceed, so those consumers fall back per
// page.
var extentGoldenScenarios = []struct {
	name string
	run  func(k *kernel.Kernel, over bool) error
}{
	{"pipe", goldenPipe},
	{"memdisk", goldenMemdisk},
	{"sendfile", goldenSendFile},
	{"zerocopy", goldenZeroCopy},
}

// goldenPipe moves two 16-page direct windows through a pipe.  Inside the
// cache the second window is read in four pieces, so the extent outlives
// a Read call; over capacity each window is read whole, the bw_pipe shape.
func goldenPipe(k *kernel.Kernel, over bool) error {
	const size = 64 << 10
	p := pipe.New(k)
	defer p.Close()
	um, err := vm.AllocUserMem(k.M.Phys, size)
	if err != nil {
		return err
	}
	defer um.Release()
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := um.WriteAt(0, want); err != nil {
		return err
	}
	rounds := [][]int{{size}, {size / 4, size / 4, size / 4, size / 4}}
	if over {
		rounds[1] = []int{size}
	}
	rctx := k.Ctx(k.M.NumCPUs() - 1)
	for _, reads := range rounds {
		done := make(chan error, 1)
		go func() { done <- p.Write(k.Ctx(0), um, 0, size) }()
		got := make([]byte, 0, size)
		for _, n := range reads {
			buf := make([]byte, n)
			for read := 0; read < n; {
				m, err := p.Read(rctx, buf[read:])
				if err != nil {
					return err
				}
				read += m
			}
			got = append(got, buf...)
		}
		if err := <-done; err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("pipe data mismatch")
		}
	}
	return nil
}

// goldenMemdisk writes, then reads back, 48 unaligned 6-page requests
// over a 128-page disk from alternating CPUs: enough distinct extents that
// window and buffer reuse must retire earlier mappings' TLB entries.
func goldenMemdisk(k *kernel.Kernel, _ bool) error {
	d, err := memdisk.New(k, 128*vm.PageSize)
	if err != nil {
		return err
	}
	defer d.Release()
	const reqs = 48
	src := make([]byte, 5*vm.PageSize+300)
	at := func(i int) int64 { return int64(i*7%120)*vm.PageSize + 1000 }
	for i := 0; i < reqs; i++ {
		for j := range src {
			src[j] = byte(i + j*13)
		}
		if err := d.WriteAt(k.Ctx(i%2), src, at(i)); err != nil {
			return err
		}
	}
	dst := make([]byte, len(src))
	for i := 0; i < reqs; i++ {
		if err := d.ReadAt(k.Ctx((i+1)%2), dst, at(i)); err != nil {
			return err
		}
	}
	return nil
}

// goldenSendFile sends a 24-page file to an external sink.  Over capacity
// the sink keeps only its newest packet unacknowledged, so the per-page
// fallback never needs more than the cache holds.
func goldenSendFile(k *kernel.Kernel, over bool) error {
	ctx := k.Ctx(0)
	d, err := memdisk.New(k, 512*fs.BlockSize)
	if err != nil {
		return err
	}
	fsys, err := fs.Mkfs(ctx, k, d, 64)
	if err != nil {
		return err
	}
	data := make([]byte, 24*fs.BlockSize+100)
	for i := range data {
		data[i] = byte(i * 29)
	}
	if err := fsys.WriteFile(ctx, "f", data); err != nil {
		return err
	}
	c := netstack.NewStack(k, netstack.MTUSmall).NewSinkConn()
	if over {
		c.SetWindow(0)
	}
	n, err := sendfile.SendFile(ctx, k, fsys, c, "f")
	c.Close(ctx)
	if err == nil && n != int64(len(data)) {
		err = fmt.Errorf("sendfile sent %d of %d bytes", n, len(data))
	}
	return err
}

// goldenZeroCopy sends an unaligned 60000-byte user buffer to an external
// sink with software checksums: large-MTU packets spanning four and five
// pages inside the cache, standard-MTU packets behind a one-packet window
// over capacity.
func goldenZeroCopy(k *kernel.Kernel, over bool) error {
	mtu := netstack.MTULarge
	if over {
		mtu = netstack.MTUSmall
	}
	c := netstack.NewStack(k, mtu).NewSinkConn()
	if over {
		c.SetWindow(0)
	}
	um, err := vm.AllocUserMem(k.M.Phys, 64<<10)
	if err != nil {
		return err
	}
	defer um.Release()
	ctx := k.Ctx(0)
	err = c.SendZeroCopy(ctx, um, 100, 60000)
	c.Close(ctx)
	return err
}

// extentGoldenRows runs every scenario on a fresh kernel of every engine
// and renders what it charged.
func extentGoldenRows(t *testing.T) map[string]string {
	rows := make(map[string]string)
	for _, e := range extentGoldenEngines {
		for _, sc := range extentGoldenScenarios {
			for _, over := range []bool{false, true} {
				cfg := e.cfg
				cfg.PhysPages, cfg.Backed, cfg.CacheEntries = 2048, true, 256
				mode := "fit"
				if over {
					cfg.CacheEntries, mode = 4, "over"
				}
				k := kernel.MustBoot(cfg)
				key := e.name + "/" + sc.name + "/" + mode
				if err := sc.run(k, over); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				c := k.M.SnapshotCounters()
				rows[key] = fmt.Sprintf("cyc=%d linv=%d rinv=%d walks=%d %+v",
					k.M.TotalCycles(), c.LocalInv, c.RemoteInvIssued, c.PTWalks, k.Map.Stats())
			}
		}
	}
	return rows
}

// TestExtentConsumersGolden pins what the consumers that map multi-page
// windows charge on every engine: total cycles, local and remote
// invalidations, page-table walks and the mapper's statistics, inside the
// cache and over capacity.  The rows were captured before the run, batch
// and per-page decision moved behind kernel.Extent; a consumer refactor
// must reproduce them exactly.  Never regenerate them to make a change
// pass.
func TestExtentConsumersGolden(t *testing.T) {
	got := extentGoldenRows(t)
	if len(got) != len(extentGolden) {
		t.Fatalf("%d rows, golden has %d", len(got), len(extentGolden))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want := extentGolden[k]; got[k] != want {
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], want)
		}
	}
}

var extentGolden = map[string]string{
	"amd64/memdisk/fit":               "cyc=3349056 linv=0 rinv=0 walks=0 {Allocs:576 Frees:576 Hits:576 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:96 RunFrees:96 RunPages:576 RunRevives:0 RunReviveMisses:0}",
	"amd64/memdisk/over":              "cyc=3349056 linv=0 rinv=0 walks=0 {Allocs:576 Frees:576 Hits:576 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:96 RunFrees:96 RunPages:576 RunRevives:0 RunReviveMisses:0}",
	"amd64/pipe/fit":                  "cyc=91240 linv=0 rinv=0 walks=0 {Allocs:32 Frees:32 Hits:32 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:32 RunRevives:0 RunReviveMisses:0}",
	"amd64/pipe/over":                 "cyc=89440 linv=0 rinv=0 walks=0 {Allocs:32 Frees:32 Hits:32 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:32 RunRevives:0 RunReviveMisses:0}",
	"amd64/sendfile/fit":              "cyc=4861549 linv=0 rinv=0 walks=0 {Allocs:185 Frees:185 Hits:185 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:25 RunRevives:0 RunReviveMisses:0}",
	"amd64/sendfile/over":             "cyc=4946149 linv=0 rinv=0 walks=0 {Allocs:185 Frees:185 Hits:185 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:25 RunRevives:0 RunReviveMisses:0}",
	"amd64/zerocopy/fit":              "cyc=73217 linv=0 rinv=0 walks=0 {Allocs:18 Frees:18 Hits:18 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:4 RunFrees:4 RunPages:18 RunRevives:0 RunReviveMisses:0}",
	"amd64/zerocopy/over":             "cyc=568440 linv=0 rinv=0 walks=0 {Allocs:56 Frees:56 Hits:56 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:42 RunFrees:42 RunPages:56 RunRevives:0 RunReviveMisses:0}",
	"i386-global/memdisk/fit":         "cyc=8118800 linv=250 rinv=0 walks=563 {Allocs:576 Frees:576 Hits:451 Misses:125 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/memdisk/over":        "cyc=8311200 linv=576 rinv=0 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/pipe/fit":            "cyc=218100 linv=16 rinv=0 walks=16 {Allocs:32 Frees:32 Hits:16 Misses:16 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/pipe/over":           "cyc=226640 linv=32 rinv=0 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/sendfile/fit":        "cyc=11322617 linv=30 rinv=25 walks=30 {Allocs:185 Frees:185 Hits:155 Misses:30 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/sendfile/over":       "cyc=11507097 linv=57 rinv=25 walks=57 {Allocs:185 Frees:185 Hits:128 Misses:57 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/zerocopy/fit":        "cyc=265794 linv=15 rinv=15 walks=15 {Allocs:18 Frees:18 Hits:3 Misses:15 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-global/zerocopy/over":       "cyc=1271900 linv=15 rinv=15 walks=15 {Allocs:56 Frees:56 Hits:41 Misses:15 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-auto/memdisk/fit":   "cyc=8050140 linv=72 rinv=3 walks=408 {Allocs:576 Frees:576 Hits:265 Misses:311 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:337 Reclaims:0 Reclaimed:0 BatchAllocs:65 BatchFrees:65 BatchPages:390 RunAllocs:31 RunFrees:31 RunPages:186 RunRevives:0 RunReviveMisses:31}",
	"i386-sharded-auto/memdisk/over":  "cyc=11100240 linv=196 rinv=376 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:572 Reclaimed:572 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-auto/pipe/fit":      "cyc=203600 linv=0 rinv=0 walks=1 {Allocs:32 Frees:32 Hits:16 Misses:16 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:32 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:32 RunRevives:1 RunReviveMisses:1}",
	"i386-sharded-auto/pipe/over":     "cyc=244600 linv=28 rinv=0 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:28 Reclaimed:28 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-auto/sendfile/fit":  "cyc=11152617 linv=0 rinv=0 walks=55 {Allocs:185 Frees:185 Hits:130 Misses:55 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:55 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:25 RunRevives:0 RunReviveMisses:2}",
	"i386-sharded-auto/sendfile/over": "cyc=11500377 linv=56 rinv=16 walks=66 {Allocs:185 Frees:185 Hits:119 Misses:66 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:10 Reclaims:52 Reclaimed:56 BatchAllocs:1 BatchFrees:1 BatchPages:1 RunAllocs:4 RunFrees:4 RunPages:8 RunRevives:0 RunReviveMisses:4}",
	"i386-sharded-auto/zerocopy/fit":  "cyc=165734 linv=0 rinv=0 walks=4 {Allocs:18 Frees:18 Hits:0 Misses:18 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:18 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:4 RunFrees:4 RunPages:18 RunRevives:0 RunReviveMisses:4}",
	"i386-sharded-auto/zerocopy/over": "cyc=1319970 linv=29 rinv=14 walks=29 {Allocs:56 Frees:56 Hits:13 Misses:43 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:30 Reclaims:13 Reclaimed:13 BatchAllocs:28 BatchFrees:28 BatchPages:28 RunAllocs:14 RunFrees:14 RunPages:28 RunRevives:0 RunReviveMisses:14}",
	"i386-sharded-off/memdisk/fit":    "cyc=7955760 linv=0 rinv=0 walks=563 {Allocs:576 Frees:576 Hits:451 Misses:125 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:210 Reclaims:0 Reclaimed:0 BatchAllocs:96 BatchFrees:96 BatchPages:576 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/memdisk/over":   "cyc=11075280 linv=196 rinv=376 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:572 Reclaimed:572 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/pipe/fit":       "cyc=204460 linv=0 rinv=0 walks=16 {Allocs:32 Frees:32 Hits:16 Misses:16 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:16 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:32 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/pipe/over":      "cyc=244080 linv=28 rinv=0 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:28 Reclaimed:28 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/sendfile/fit":   "cyc=11142137 linv=0 rinv=0 walks=30 {Allocs:185 Frees:185 Hits:155 Misses:30 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:30 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:25 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/sendfile/over":  "cyc=11521287 linv=54 rinv=21 walks=58 {Allocs:185 Frees:185 Hits:127 Misses:58 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:54 Reclaimed:54 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/zerocopy/fit":   "cyc=159054 linv=0 rinv=0 walks=15 {Allocs:18 Frees:18 Hits:3 Misses:15 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:15 Reclaims:0 Reclaimed:0 BatchAllocs:4 BatchFrees:4 BatchPages:18 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-off/zerocopy/over":  "cyc=1251110 linv=11 rinv=11 walks=15 {Allocs:56 Frees:56 Hits:41 Misses:15 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:11 Reclaimed:11 BatchAllocs:42 BatchFrees:42 BatchPages:56 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-on/memdisk/fit":     "cyc=8166120 linv=264 rinv=11 walks=96 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:576 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:96 RunFrees:96 RunPages:576 RunRevives:0 RunReviveMisses:96}",
	"i386-sharded-on/memdisk/over":    "cyc=11075280 linv=196 rinv=376 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:572 Reclaimed:572 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-on/pipe/fit":        "cyc=203080 linv=0 rinv=0 walks=1 {Allocs:32 Frees:32 Hits:16 Misses:16 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:32 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:32 RunRevives:1 RunReviveMisses:1}",
	"i386-sharded-on/pipe/over":       "cyc=244080 linv=28 rinv=0 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:28 Reclaimed:28 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-on/sendfile/fit":    "cyc=11152097 linv=0 rinv=0 walks=55 {Allocs:185 Frees:185 Hits:130 Misses:55 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:55 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:2 RunFrees:2 RunPages:25 RunRevives:0 RunReviveMisses:2}",
	"i386-sharded-on/sendfile/over":   "cyc=11521287 linv=54 rinv=21 walks=58 {Allocs:185 Frees:185 Hits:127 Misses:58 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:4 Reclaims:54 Reclaimed:54 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"i386-sharded-on/zerocopy/fit":    "cyc=164694 linv=0 rinv=0 walks=4 {Allocs:18 Frees:18 Hits:0 Misses:18 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:18 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:4 RunFrees:4 RunPages:18 RunRevives:0 RunReviveMisses:4}",
	"i386-sharded-on/zerocopy/over":   "cyc=1270700 linv=46 rinv=4 walks=42 {Allocs:56 Frees:56 Hits:0 Misses:56 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:56 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:42 RunFrees:42 RunPages:56 RunRevives:0 RunReviveMisses:42}",
	"original-amd64/memdisk/fit":      "cyc=3923136 linv=1152 rinv=96 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:96 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:96 BatchFrees:96 BatchPages:576 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/memdisk/over":     "cyc=3923136 linv=1152 rinv=96 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:96 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:96 BatchFrees:96 BatchPages:576 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/pipe/fit":         "cyc=111400 linv=64 rinv=2 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:2 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:32 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/pipe/over":        "cyc=109600 linv=64 rinv=2 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:2 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:32 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/sendfile/fit":     "cyc=5559924 linv=185 rinv=185 walks=185 {Allocs:185 Frees:185 Hits:0 Misses:185 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:185 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/sendfile/over":    "cyc=5644524 linv=185 rinv=185 walks=185 {Allocs:185 Frees:185 Hits:0 Misses:185 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:185 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/zerocopy/fit":     "cyc=141167 linv=18 rinv=18 walks=18 {Allocs:18 Frees:18 Hits:0 Misses:18 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:18 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-amd64/zerocopy/over":    "cyc=779840 linv=56 rinv=56 walks=56 {Allocs:56 Frees:56 Hits:0 Misses:56 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:56 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/memdisk/fit":       "cyc=14002080 linv=576 rinv=576 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:576 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:96 BatchFrees:96 BatchPages:576 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/memdisk/over":      "cyc=14002080 linv=576 rinv=576 walks=576 {Allocs:576 Frees:576 Hits:0 Misses:576 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:576 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:96 BatchFrees:96 BatchPages:576 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/pipe/fit":          "cyc=546100 linv=32 rinv=32 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:32 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:32 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/pipe/over":         "cyc=542800 linv=32 rinv=32 walks=32 {Allocs:32 Frees:32 Hits:0 Misses:32 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:32 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:2 BatchFrees:2 BatchPages:32 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/sendfile/fit":      "cyc=13100117 linv=185 rinv=185 walks=185 {Allocs:185 Frees:185 Hits:0 Misses:185 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:185 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/sendfile/over":     "cyc=13264617 linv=185 rinv=185 walks=185 {Allocs:185 Frees:185 Hits:0 Misses:185 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:185 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/zerocopy/fit":      "cyc=346854 linv=18 rinv=18 walks=18 {Allocs:18 Frees:18 Hits:0 Misses:18 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:18 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
	"original-i386/zerocopy/over":     "cyc=1756520 linv=56 rinv=56 walks=56 {Allocs:56 Frees:56 Hits:0 Misses:56 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:56 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0}",
}
