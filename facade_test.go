package sfbuf

import (
	"errors"
	"testing"

	"sfbuf/internal/kcopy"
)

// TestFacadeQuickstart runs the README's quickstart path end to end
// through the public facade.
func TestFacadeQuickstart(t *testing.T) {
	k := MustBoot(Config{
		Platform:     XeonMP(),
		Mapper:       SFBufKernel,
		PhysPages:    128,
		Backed:       true,
		CacheEntries: 32,
	})
	ctx := k.Ctx(0)
	page, err := k.M.Phys.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Map.Alloc(ctx, page, Private)
	if err != nil {
		t.Fatal(err)
	}
	if err := kcopy.CopyIn(ctx, k.Pmap, b.KVA(), []byte("facade")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := kcopy.CopyOut(ctx, k.Pmap, got, b.KVA()); err != nil {
		t.Fatal(err)
	}
	if string(got) != "facade" {
		t.Fatalf("read %q", got)
	}
	k.Map.Free(ctx, b)
}

func TestFacadePlatforms(t *testing.T) {
	if len(EvaluationPlatforms()) != 5 {
		t.Fatal("expected the paper's five platforms")
	}
	for _, boot := range []func() Platform{XeonUP, XeonHTT, XeonMP, XeonMPHTT, OpteronMP} {
		p := boot()
		k, err := Boot(Config{Platform: p, Mapper: SFBufKernel, PhysPages: 64, CacheEntries: 16})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if k.M.NumCPUs() != p.NumCPUs {
			t.Fatalf("%s: cpus %d != %d", p.Name, k.M.NumCPUs(), p.NumCPUs)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) != 24 {
		t.Fatalf("experiments = %d, want 24", len(ids))
	}
	res, err := RunExperiment("sec3", ExperimentOptions{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "sec3" || len(res.Rows) == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if _, err := RunExperiment("nope", DefaultExperimentOptions()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestFacadeUserMemAndErrors(t *testing.T) {
	k := MustBoot(Config{Platform: OpteronMP(), Mapper: SFBufKernel, PhysPages: 64})
	um, err := AllocUserMem(k, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if um.Len() != 8192 {
		t.Fatalf("len = %d", um.Len())
	}
	um.Release()
	if !errors.Is(ErrWouldBlock, ErrWouldBlock) || ErrWouldBlock == ErrInterrupted {
		t.Fatal("error identities broken")
	}
}
