package memdisk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/vm"
)

// TestBatchAndPerPagePathsAgree writes through the original kernel's
// batched path (amd64, multi-page requests take AllocBatch) and the
// sf_buf kernel's per-page path, and checks byte-for-byte agreement with
// a reference model for identical operation sequences.
func TestBatchAndPerPagePathsAgree(t *testing.T) {
	type op struct {
		off   int64
		data  []byte
		write bool
	}
	rng := rand.New(rand.NewSource(55))
	var ops []op
	for i := 0; i < 120; i++ {
		n := rng.Intn(3*vm.PageSize) + 1
		o := op{
			off:   int64(rng.Intn(48*vm.PageSize - n)),
			write: rng.Intn(2) == 0,
		}
		o.data = make([]byte, n)
		rng.Read(o.data)
		ops = append(ops, o)
	}

	run := func(mk kernel.MapperKind, plat arch.Platform) []byte {
		k := kernel.MustBoot(kernel.Config{
			Platform:     plat,
			Mapper:       mk,
			PhysPages:    64,
			Backed:       true,
			CacheEntries: 64,
		})
		d, err := New(k, 48*vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ctx := k.Ctx(0)
		for _, o := range ops {
			if o.write {
				if err := d.WriteAt(ctx, o.data, o.off); err != nil {
					t.Fatal(err)
				}
			} else {
				buf := make([]byte, len(o.data))
				if err := d.ReadAt(ctx, buf, o.off); err != nil {
					t.Fatal(err)
				}
			}
		}
		img := make([]byte, 48*vm.PageSize)
		if err := d.ReadAt(ctx, img, 0); err != nil {
			t.Fatal(err)
		}
		return img
	}

	// Reference model.
	model := make([]byte, 48*vm.PageSize)
	for _, o := range ops {
		if o.write {
			copy(model[o.off:], o.data)
		}
	}

	perPage := run(kernel.SFBuf, arch.XeonMP())             // sf_buf: per page
	batched := run(kernel.OriginalKernel, arch.OpteronMP()) // original amd64: batched
	if !bytes.Equal(perPage, model) {
		t.Fatal("per-page path disagrees with the model")
	}
	if !bytes.Equal(batched, model) {
		t.Fatal("batched path disagrees with the model")
	}
}

// Property: for any (offset, length) pair, a batched multi-page write
// followed by single-byte reads returns the written bytes, under the
// original kernel where AllocBatch/FreeBatch run.
func TestQuickBatchedWriteReadback(t *testing.T) {
	k := kernel.MustBoot(kernel.Config{
		Platform:  arch.OpteronMP(),
		Mapper:    kernel.OriginalKernel,
		PhysPages: 40,
		Backed:    true,
	})
	d, err := New(k, 32*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	f := func(off uint32, n uint16, seed int64) bool {
		c := int(n)%(3*vm.PageSize) + 2
		o := int64(off) % (32*vm.PageSize - int64(c))
		src := make([]byte, c)
		rand.New(rand.NewSource(seed)).Read(src)
		if err := d.WriteAt(ctx, src, o); err != nil {
			return false
		}
		one := make([]byte, 1)
		for _, probe := range []int64{0, int64(c) / 2, int64(c) - 1} {
			if err := d.ReadAt(ctx, one, o+probe); err != nil {
				return false
			}
			if one[0] != src[probe] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestLargerThanMappingCache pins the over-capacity case: a
// transfer spanning more pages than the sharded cache holds buffers gets a
// per-page extent from MapExtent and moves its bytes page by page.
func TestRequestLargerThanMappingCache(t *testing.T) {
	k := kernel.MustBoot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		Backed:       true,
		PhysPages:    256,
		CacheEntries: 8, // far smaller than the 32-page request below
	})
	d, err := New(k, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	src := make([]byte, 32*vm.PageSize)
	for i := range src {
		src[i] = byte(i * 13)
	}
	if err := d.WriteAt(ctx, src, vm.PageSize/2); err != nil {
		t.Fatalf("oversized write: %v", err)
	}
	got := make([]byte, len(src))
	if err := d.ReadAt(ctx, got, vm.PageSize/2); err != nil {
		t.Fatalf("oversized read: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("oversized transfer corrupted data")
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st.Allocs, st.Frees)
	}
}
