package kernel

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
)

func TestBootAllPlatformsBothKernels(t *testing.T) {
	for _, plat := range arch.Evaluation() {
		for _, mk := range []MapperKind{SFBuf, OriginalKernel} {
			k, err := Boot(Config{
				Platform:     plat,
				Mapper:       mk,
				PhysPages:    256,
				Backed:       true,
				CacheEntries: 64,
			})
			if err != nil {
				t.Fatalf("%s/%v: %v", plat.Name, mk, err)
			}
			// Smoke: allocate, resolve, free a mapping.
			ctx := k.Ctx(0)
			pg, err := k.M.Phys.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			b, err := k.Map.Alloc(ctx, pg, 0)
			if err != nil {
				t.Fatalf("%s: %v", k.Name(), err)
			}
			if got, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil || got != pg {
				t.Fatalf("%s: translate = (%v, %v)", k.Name(), got, err)
			}
			k.Map.Free(ctx, b)
		}
	}
}

func TestMapperSelection(t *testing.T) {
	cases := []struct {
		plat  arch.Platform
		mk    MapperKind
		cache CachePolicy
		want  string
	}{
		{arch.XeonMP(), SFBuf, CacheSharded, "sf_buf/i386-sharded"},
		{arch.XeonMP(), SFBuf, CacheGlobal, "sf_buf/i386"},
		{arch.OpteronMP(), SFBuf, CacheSharded, "sf_buf/amd64"},
		{arch.XeonMP(), OriginalKernel, CacheSharded, "original"},
		{arch.OpteronMP(), OriginalKernel, CacheGlobal, "original"},
	}
	for _, c := range cases {
		k := MustBoot(Config{Platform: c.plat, Mapper: c.mk, Cache: c.cache, PhysPages: 64, CacheEntries: 16})
		if k.Map.Name() != c.want {
			t.Fatalf("%s/%v/%v: mapper %q, want %q", c.plat.Name, c.mk, c.cache, k.Map.Name(), c.want)
		}
	}
}

func TestKernelNames(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonHTT(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16})
	if k.Name() != "Xeon-HTT/sf_buf" {
		t.Fatalf("name = %q", k.Name())
	}
	k2 := MustBoot(Config{Platform: arch.OpteronMP(), Mapper: OriginalKernel, PhysPages: 64})
	if k2.Name() != "Opteron-MP/original" {
		t.Fatalf("name = %q", k2.Name())
	}
}

func TestCacheEntriesConfig(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 6 * 1024})
	i386, ok := k.Map.(*sfbuf.I386)
	if !ok {
		t.Fatal("expected i386 mapper")
	}
	if i386.Entries() != 6*1024 {
		t.Fatalf("entries = %d, want 6144", i386.Entries())
	}
}

func TestResetClearsCountersAndStats(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 64, CacheEntries: 16, Backed: true})
	ctx := k.Ctx(0)
	pg, _ := k.M.Phys.Alloc()
	b, _ := k.Map.Alloc(ctx, pg, 0)
	k.Map.Free(ctx, b)
	k.Reset()
	if k.Map.Stats().Allocs != 0 {
		t.Fatal("mapper stats not reset")
	}
	if k.M.TotalCycles() != 0 {
		t.Fatal("cycles not reset")
	}
}

func TestPhysContigAlignHints(t *testing.T) {
	k := MustBoot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 4096, CacheEntries: 32})
	if got := k.PhysContigAlign(pmap.SuperpagePages); got != pmap.SuperpagePages {
		t.Errorf("superpage-coverable align = %d, want %d", got, pmap.SuperpagePages)
	}
	if got := k.PhysContigAlign(8); got != 1 {
		t.Errorf("i386 small align = %d, want 1", got)
	}
}
