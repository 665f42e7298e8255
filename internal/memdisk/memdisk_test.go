package memdisk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/vm"
)

func bootDiskKernel(t *testing.T, mk kernel.MapperKind, plat arch.Platform, cacheEntries int, contig ...kernel.Tri) *kernel.Kernel {
	t.Helper()
	cfg := kernel.Config{
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    1024,
		Backed:       true,
		CacheEntries: cacheEntries,
	}
	for _, c := range contig {
		cfg.Contig = c
	}
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		k := bootDiskKernel(t, mk, arch.XeonMP(), 128)
		d, err := New(k, 256*1024)
		if err != nil {
			t.Fatal(err)
		}
		ctx := k.Ctx(0)
		want := make([]byte, 64*1024)
		rand.New(rand.NewSource(1)).Read(want)
		if err := d.WriteAt(ctx, want, 12345); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if err := d.ReadAt(ctx, got, 12345); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: disk round trip corrupted data", mk)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	k := bootDiskKernel(t, kernel.SFBuf, arch.XeonUP(), 32)
	d, _ := New(k, 8192)
	ctx := k.Ctx(0)
	if err := d.ReadAt(ctx, make([]byte, 16), 8190); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteAt(ctx, make([]byte, 1), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if _, err := d.PageAt(8192); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestPrivateMappingsAvoidShootdowns(t *testing.T) {
	// A disk larger than the mapping cache: sequential sweeps miss ~100%
	// (the Figure 6/7 configuration).  Private mappings must eliminate
	// all remote invalidations; shared mappings must issue them.
	const diskSize = 64 * vm.PageSize
	run := func(private bool) (remote uint64) {
		k := bootDiskKernel(t, kernel.SFBuf, arch.XeonMP(), 16)
		d, err := New(k, diskSize)
		if err != nil {
			t.Fatal(err)
		}
		d.SetPrivateMappings(private)
		ctx := k.Ctx(0)
		buf := make([]byte, vm.PageSize)
		// Two sweeps: the first warms (and touches) everything, the
		// second is the measured miss-heavy pass.
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				k.Reset()
			}
			for off := int64(0); off < diskSize; off += vm.PageSize {
				if err := d.ReadAt(ctx, buf, off); err != nil {
					t.Fatal(err)
				}
			}
		}
		return k.M.Counters().RemoteInvIssued.Load()
	}
	if got := run(true); got != 0 {
		t.Fatalf("private mappings issued %d remote invalidations, want 0", got)
	}
	if got := run(false); got == 0 {
		t.Fatal("shared mappings under misses must issue remote invalidations")
	}
}

func TestDiskFitsInCacheNoInvalidations(t *testing.T) {
	// The Figure 4/5 configuration: disk fully mapped by the cache.
	// This test pins the mapping CACHE's reuse property — repeat reads
	// are pure hash hits with zero invalidations.  Contiguous runs trade
	// exactly that reuse for ranged translation (every run installs and
	// tears down fresh PTEs), so boot the subsystem on the cached path.
	k := bootDiskKernel(t, kernel.SFBuf, arch.XeonMPHTT(), 64, kernel.Off)
	d, err := New(k, 32*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	d.SetPrivateMappings(false) // even shared mappings stay quiet on hits
	ctx := k.Ctx(0)
	buf := make([]byte, 16*1024)
	warm := func() {
		for off := int64(0); off+int64(len(buf)) <= d.Size(); off += int64(len(buf)) {
			if err := d.ReadAt(ctx, buf, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	k.Reset()
	for i := 0; i < 5; i++ {
		warm()
	}
	if l, r := k.M.Counters().LocalInv.Load(), k.M.Counters().RemoteInvIssued.Load(); l != 0 || r != 0 {
		t.Fatalf("invalidations = local %d remote %d, want 0/0", l, r)
	}
	if hr := k.Map.Stats().HitRate(); hr != 1.0 {
		t.Fatalf("hit rate = %v, want 1.0", hr)
	}
}

func TestOpsCounting(t *testing.T) {
	k := bootDiskKernel(t, kernel.SFBuf, arch.XeonUP(), 32)
	d, _ := New(k, 64*1024)
	ctx := k.Ctx(0)
	d.ReadAt(ctx, make([]byte, 10), 0)
	d.WriteAt(ctx, make([]byte, 10), 0)
	d.WriteAt(ctx, make([]byte, 10), 100)
	r, w := d.Ops()
	if r != 1 || w != 2 {
		t.Fatalf("ops = (%d,%d), want (1,2)", r, w)
	}
}

func TestRelease(t *testing.T) {
	k := bootDiskKernel(t, kernel.SFBuf, arch.XeonUP(), 32)
	free := k.M.Phys.FreeFrames()
	d, _ := New(k, 16*vm.PageSize)
	if k.M.Phys.FreeFrames() != free-16 {
		t.Fatal("disk did not take pages")
	}
	d.Release()
	if k.M.Phys.FreeFrames() != free {
		t.Fatal("release leaked pages")
	}
}

// Property: the disk behaves as a flat byte array under random writes and
// reads, for both kernels.
func TestQuickFlatModel(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		k := bootDiskKernel(t, mk, arch.XeonMPHTT(), 32)
		d, err := New(k, 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]byte, 64*1024)
		rng := rand.New(rand.NewSource(99))
		f := func(off uint16, n uint8, cpu uint8) bool {
			ctx := k.Ctx(int(cpu) % k.M.NumCPUs())
			o := int64(off) % (64*1024 - 300)
			c := int(n) + 1
			src := make([]byte, c)
			rng.Read(src)
			if err := d.WriteAt(ctx, src, o); err != nil {
				return false
			}
			copy(model[o:], src)
			got := make([]byte, c)
			if err := d.ReadAt(ctx, got, o); err != nil {
				return false
			}
			return bytes.Equal(got, model[o:int(o)+c])
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%v: %v", mk, err)
		}
	}
}

// TestBuddyPoolStaysPromotionEligible pins the buddy-backed pool builder:
// on a buddy kernel a disk created AFTER allocator churn still gets
// aligned, physically contiguous superpage-span chunks, which is what
// keeps its transfers promotion-eligible.
func TestBuddyPoolStaysPromotionEligible(t *testing.T) {
	const span = 512 // pmap.SuperpagePages
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		PhysPages:    4 * span,
		CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Churn the allocator so a LIFO stack would be scrambled.
	churn, err := k.M.Phys.AllocN(3 * span)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(churn), func(i, j int) { churn[i], churn[j] = churn[j], churn[i] })
	for _, pg := range churn {
		k.M.Phys.Free(pg)
	}
	d, err := New(k, int64(2*span)*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Pages()
	for c := 0; c+span <= len(pool); c += span {
		if pool[c].Frame()%span != 0 {
			t.Errorf("chunk %d starts at frame %d, want superpage alignment", c/span, pool[c].Frame())
		}
		for i := 1; i < span; i++ {
			if pool[c+i].Frame() != pool[c].Frame()+uint64(i) {
				t.Fatalf("chunk %d page %d breaks contiguity", c/span, i)
			}
		}
	}
	d.Release()
}

// TestPoolFallsBackScatteredUnderFragmentation: when fragmentation has
// consumed every covering block the pool builder degrades to scattered
// AllocN pages instead of failing.
func TestPoolFallsBackScatteredUnderFragmentation(t *testing.T) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		PhysPages:    256,
		CacheEntries: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	all, err := k.M.Phys.AllocN(256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(all); i += 2 {
		k.M.Phys.Free(all[i]) // every other frame: no two adjacent free
	}
	d, err := New(k, int64(64)*vm.PageSize)
	if err != nil {
		t.Fatalf("fragmented pool build: %v", err)
	}
	if got := len(d.Pages()); got != 64 {
		t.Fatalf("pool has %d pages, want 64", got)
	}
	d.Release()
}

// TestPoolHalvesChunksToSuperpageSpan: a pool whose largest intact
// blocks are exactly one superpage span (a 1536-page machine has no
// order-10 block at all) must still build a >512-page disk from
// promotion-eligible 512-page chunks instead of degrading the whole
// remainder to scattered pages.
func TestPoolHalvesChunksToSuperpageSpan(t *testing.T) {
	const span = 512
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		PhysPages:    3 * span, // boot cover tops out at order-9 blocks
		CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(k, int64(span+64)*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pool := d.Pages()
	if pool[0].Frame()%span != 0 {
		t.Errorf("first chunk starts at frame %d, want superpage alignment", pool[0].Frame())
	}
	for i := 1; i < span; i++ {
		if pool[i].Frame() != pool[0].Frame()+uint64(i) {
			t.Fatalf("page %d breaks the halved chunk's contiguity", i)
		}
	}
	d.Release()
}
