package kernel

// Socket-topology wiring and stress tests: the Config.Sockets/Homing
// knobs through Boot (TestPlanGolden pins their resolution), and a -race
// churn where one package frees what the other mapped — the
// allocation-side and teardown-side state live in different sockets'
// structures, so every handoff crosses the homing boundaries the
// refactor introduced.

import (
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/sfbuf"
)

func TestSocketConfigWiring(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		sockets int
	}{
		{"default flat", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32}, 1},
		{"explicit one socket", Config{Platform: arch.XeonMP(), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Sockets: 1}, 1},
		{"two sockets auto", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Sockets: 2}, 2},
		{"two sockets homing off", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Sockets: 2, Homing: Off}, 2},
		{"global cache never homes", Config{Platform: arch.XeonNUMA(2, 2), Mapper: SFBuf,
			PhysPages: 256, CacheEntries: 32, Sockets: 2, Cache: CacheGlobal}, 2},
		{"original kernel never homes", Config{Platform: arch.XeonNUMA(2, 2),
			Mapper: OriginalKernel, PhysPages: 256, Sockets: 2}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Boot(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.M.Sockets(); got != tc.sockets {
				t.Fatalf("machine sockets = %d, want %d", got, tc.sockets)
			}
			if got := k.M.Phys.PhysStats().Sockets; got != tc.sockets {
				t.Fatalf("phys pool sockets = %d, want %d", got, tc.sockets)
			}
			// Homed state carves one arena region per socket.
			want := 1
			if k.Plan.Homed {
				want = tc.sockets
			}
			if got := k.Arena.Regions(); got != want {
				t.Fatalf("arena regions = %d, want %d (homed %v)", got, want, k.Plan.Homed)
			}
		})
	}
}

// TestCrossSocketChurnStress: socket 1's CPUs map shared buffers over
// their own socket's frames while socket 0's CPUs read and free them.
// Every buffer's lifecycle crosses the package boundary — the freeing
// CPU takes the frame's home-socket shard lock and freelist remotely —
// so the homed structures' locking is exercised from the wrong side on
// every operation.  Run under -race this is the cross-socket
// interleaving stressor; on any run the remote-lock counter must have
// engaged, proving the handoffs genuinely crossed sockets.
func TestCrossSocketChurnStress(t *testing.T) {
	const (
		entries = 96
		perCPU  = 2000
	)
	k := MustBoot(Config{
		Platform:     arch.XeonNUMA(2, 2),
		Mapper:       SFBuf,
		Cache:        CacheSharded,
		PhysPages:    1024,
		CacheEntries: entries,
		Sockets:      2,
	})
	pages, err := k.M.Phys.AllocNOn(1, 256) // socket 1's frames
	if err != nil {
		t.Fatal(err)
	}

	// Mappers (CPUs 2,3 — socket 1) push live buffers; freers (CPUs 0,1 —
	// socket 0) read through them and free.  The channel bound keeps the
	// in-flight set below the cache capacity so mappers never deadlock.
	ch := make(chan *sfbuf.Buf, entries/2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i, cpu := range []int{2, 3} {
		wg.Add(1)
		go func(i, cpu int) {
			defer wg.Done()
			ctx := k.Ctx(cpu)
			for n := 0; n < perCPU; n++ {
				pg := pages[(n*(2*cpu+1)+i*31)%len(pages)]
				b, err := k.Map.Alloc(ctx, pg, 0)
				if err != nil {
					errs[cpu] = err
					break
				}
				if _, err := k.Pmap.Translate(ctx, b.KVA(), true); err != nil {
					errs[cpu] = err
					break
				}
				ch <- b
			}
		}(i, cpu)
	}
	var fwg sync.WaitGroup
	for _, cpu := range []int{0, 1} {
		fwg.Add(1)
		go func(cpu int) {
			defer fwg.Done()
			ctx := k.Ctx(cpu)
			for b := range ch {
				if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
					errs[cpu] = err
					return
				}
				k.Map.Free(ctx, b)
			}
		}(cpu)
	}
	wg.Wait()
	close(ch)
	fwg.Wait()
	for cpu, err := range errs {
		if err != nil {
			t.Fatalf("cpu %d: %v", cpu, err)
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	if s := k.M.SnapshotCounters(); s.RemoteLockAcq == 0 {
		t.Fatal("cross-socket churn never paid a remote lock — the handoff did not cross packages")
	}
}
