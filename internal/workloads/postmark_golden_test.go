package workloads

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/memdisk"
)

// postMarkGoldenConfig is a small PostMark run on a disk four times the
// mapping cache: the pool fills the disk, so creates and appends meet
// ErrNoSpace, deletes free blocks below the allocator's scan position,
// and the sf_buf cache misses and recycles inactive entries.
func postMarkGoldenConfig() (cfg PostMarkConfig, diskBytes int64, entries int) {
	cfg = PostMarkConfig3()
	cfg.InitialFiles = 100
	cfg.Transactions = 2000
	cfg.Seed = 7
	return cfg, 1 << 20, 64
}

// runPostMarkGolden boots one figure kernel (the paper's global-lock
// cache, or the original kernel), formats the disk, builds the pool,
// resets the counters as the figures do and runs the transactions.  It
// renders the setup's cycles and everything the transaction phase
// charged, plus the filesystem's final shape and a fingerprint of where
// every file's pages lie on disk.  The mapping costs alone cannot pin the
// block allocator: relabelling the data blocks (lowest free first against
// highest free first) leaves every cache hit and miss where it was.
func runPostMarkGolden(t testing.TB, plat arch.Platform, mk kernel.MapperKind) string {
	cfg, diskBytes, entries := postMarkGoldenConfig()
	k, err := kernel.Boot(kernel.Config{
		Cache:        kernel.CacheGlobal,
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    int(diskBytes/fs.BlockSize) + 256,
		Backed:       true,
		CacheEntries: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := memdisk.New(k, diskBytes)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := fs.Mkfs(k.Ctx(0), k, d, cfg.InitialFiles*2+64)
	if err != nil {
		t.Fatal(err)
	}
	if err := PostMarkInit(k.Ctx(0), fsys, cfg); err != nil {
		t.Fatal(err)
	}
	setup := k.M.TotalCycles()
	k.Reset()
	res, err := PostMark(k, fsys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := k.M.SnapshotCounters()
	row := fmt.Sprintf("setup=%d cyc=%d linv=%d rinv=%d ipis=%d walks=%d free=%d files=%d %+v %+v",
		setup, k.M.TotalCycles(), c.LocalInv, c.RemoteInvIssued, c.IPIsDelivered, c.PTWalks,
		fsys.FreeBlocks(), fsys.NumFiles(), k.Map.Stats(), res)
	return fmt.Sprintf("%s layout=%016x", row, fileLayout(t, k, fsys))
}

// fileLayout hashes every live file's name, size and the disk block
// behind each of its pages, in name order.
func fileLayout(t testing.TB, k *kernel.Kernel, fsys *fs.FS) uint64 {
	ctx := k.Ctx(0)
	names := fsys.List()
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		size, err := fsys.Size(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s:%d:", name, size)
		for pi := 0; int64(pi)*fs.BlockSize < size; pi++ {
			blk, err := fsys.BlockOf(ctx, name, pi)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%d,", blk)
		}
	}
	return h.Sum64()
}

// postMarkGoldenArms are the figures' two PostMark platforms, each on the
// sf_buf kernel and the original kernel.
var postMarkGoldenArms = []struct {
	name string
	plat arch.Platform
	mk   kernel.MapperKind
}{
	{"xeon-mp-htt/sf_buf", arch.XeonMPHTT(), kernel.SFBuf},
	{"xeon-mp-htt/original", arch.XeonMPHTT(), kernel.OriginalKernel},
	{"opteron-mp/sf_buf", arch.OpteronMP(), kernel.SFBuf},
	{"opteron-mp/original", arch.OpteronMP(), kernel.OriginalKernel},
}

// TestPostMarkGolden pins what PostMark charges on both figure platforms
// and both engines: total cycles, invalidations, IPIs, page-table walks,
// the mapper's statistics, the filesystem's free-block and file counts
// and its file layout.  The rows were captured before the filesystem's
// allocation bitmap became its on-disk image and before the original
// kernel recycled its mapping handles; host-side bookkeeping must not
// move a simulated number.  Never regenerate them to make a change pass.
func TestPostMarkGolden(t *testing.T) {
	if len(postMarkGoldenArms) != len(postMarkGolden) {
		t.Fatalf("%d arms, golden has %d rows", len(postMarkGoldenArms), len(postMarkGolden))
	}
	for _, a := range postMarkGoldenArms {
		if got, want := runPostMarkGolden(t, a.plat, a.mk), postMarkGolden[a.name]; got != want {
			t.Errorf("%s:\n got  %s\n want %s", a.name, got, want)
		}
	}
}

var postMarkGolden = map[string]string{
	"xeon-mp-htt/sf_buf":   "setup=101524009 cyc=3037938049 linv=5010 rinv=0 ipis=0 walks=5010 free=54 files=87 {Allocs:51744 Frees:51744 Hits:46734 Misses:5010 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0} {Transactions:2000 Creates:982 Deletes:1018 Reads:966 Appends:1026 BytesRead:9700407 BytesWritten:10252323} layout=9931e7e142cef00e",
	"xeon-mp-htt/original": "setup=130513989 cyc=3940785529 linv=51744 rinv=51744 ipis=155232 walks=51744 free=54 files=87 {Allocs:51744 Frees:51744 Hits:0 Misses:51744 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:51744 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0} {Transactions:2000 Creates:982 Deletes:1018 Reads:966 Appends:1026 BytesRead:9700407 BytesWritten:10252323} layout=9931e7e142cef00e",
	"opteron-mp/sf_buf":    "setup=43419858 cyc=1292859508 linv=0 rinv=0 ipis=0 walks=0 free=54 files=87 {Allocs:51744 Frees:51744 Hits:51744 Misses:0 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:0 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0} {Transactions:2000 Creates:982 Deletes:1018 Reads:966 Appends:1026 BytesRead:9700407 BytesWritten:10252323} layout=9931e7e142cef00e",
	"opteron-mp/original":  "setup=49697683 cyc=1488193108 linv=51744 rinv=51744 ipis=51744 walks=51744 free=54 files=87 {Allocs:51744 Frees:51744 Hits:0 Misses:51744 Sleeps:0 Interrupted:0 WouldBlock:0 VAAllocs:51744 FreelistAllocs:0 Reclaims:0 Reclaimed:0 BatchAllocs:0 BatchFrees:0 BatchPages:0 RunAllocs:0 RunFrees:0 RunPages:0 RunRevives:0 RunReviveMisses:0} {Transactions:2000 Creates:982 Deletes:1018 Reads:966 Appends:1026 BytesRead:9700407 BytesWritten:10252323} layout=9931e7e142cef00e",
}

// TestPostMarkAllocsPerTransaction bounds PostMark's Go heap allocations
// per transaction on both engines of both figure platforms: the original
// kernel recycles its mapping handles, and the filesystem decodes inodes
// into caller-owned values, flushes its bitmap image in place and reads
// through its recycled block buffers.  What remains is the driver's
// file-name formatting.
func TestPostMarkAllocsPerTransaction(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so pooled scratch reallocates")
	}
	const limit = 1.5
	for _, a := range postMarkGoldenArms {
		cfg := PostMarkConfig3()
		cfg.InitialFiles, cfg.Transactions = 500, 5000
		const diskBytes = 16 << 20
		k, err := kernel.Boot(kernel.Config{
			Cache:        kernel.CacheGlobal,
			Platform:     a.plat,
			Mapper:       a.mk,
			PhysPages:    diskBytes/fs.BlockSize + 256,
			Backed:       true,
			CacheEntries: 2048,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := memdisk.New(k, diskBytes)
		if err != nil {
			t.Fatal(err)
		}
		fsys, err := fs.Mkfs(k.Ctx(0), k, d, cfg.InitialFiles*2+64)
		if err != nil {
			t.Fatal(err)
		}
		if err := PostMarkInit(k.Ctx(0), fsys, cfg); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := PostMark(k, fsys, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.Transactions)
		t.Logf("%s: %.2f allocs per transaction", a.name, per)
		if per > limit {
			t.Errorf("%s: %.2f heap allocations per transaction, want at most %v", a.name, per, limit)
		}
	}
}
