package sfbuf

import (
	"math/rand"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

// TestStatsLedgerAcrossShards pins the statistics now that each lock
// keeps its own share of them (shards, freelists, the pool, the run
// pool): a seeded single/batch/run trace over a striped cache must read
// back exactly the test's own tally of calls and pages, with every
// allocation a hit or a miss; ResetStats must zero every share; and under
// concurrent churn every page mapped is freed by drain.
func TestStatsLedgerAcrossShards(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 64, ShardedConfig{})
	c := r.sf.c.(*shardedCache)
	if len(c.shards) < 2 {
		t.Fatalf("%d shards: the ledger must span several", len(c.shards))
	}
	pages := make([]*vm.Page, 96) // more than the cache: misses and reclaims too
	for i := range pages {
		pages[i] = r.page(t)
	}
	rng := rand.New(rand.NewSource(29))
	var want Stats
	for step := 0; step < 2000; step++ {
		ctx := r.m.Ctx(rng.Intn(r.m.NumCPUs()))
		n := 1 + rng.Intn(8)
		at := rng.Intn(len(pages) - n)
		ext := pages[at : at+n]
		switch rng.Intn(3) {
		case 0:
			b, err := r.sf.Alloc(ctx, ext[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			r.sf.Free(ctx, b)
			want.Allocs++
			want.Frees++
		case 1:
			bufs, err := r.sf.AllocBatch(ctx, ext, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.sf.FreeBatch(ctx, bufs)
			want.Allocs += uint64(n)
			want.Frees += uint64(n)
			want.BatchAllocs++
			want.BatchFrees++
			want.BatchPages += uint64(n)
		case 2:
			run, err := r.sf.AllocRun(ctx, ext, 0)
			if err != nil {
				t.Fatal(err)
			}
			r.sf.FreeRun(ctx, run)
			want.Allocs += uint64(n)
			want.Frees += uint64(n)
			want.RunAllocs++
			want.RunFrees++
			want.RunPages += uint64(n)
		}
	}
	got := r.sf.Stats()
	if got.Hits+got.Misses != got.Allocs || got.Hits == 0 || got.Misses == 0 {
		t.Fatalf("hits %d + misses %d vs allocs %d: every allocation must be one or the other, and the trace must see both",
			got.Hits, got.Misses, got.Allocs)
	}
	if got.RunRevives+got.RunReviveMisses != got.RunAllocs {
		t.Fatalf("run revives %d + revive misses %d != run allocs %d", got.RunRevives, got.RunReviveMisses, got.RunAllocs)
	}
	// What the trace cannot predict (which pages hit, which buffers came
	// from which stock) is checked by the relations above; the rest must
	// equal the tally exactly, down to zero sleeps and would-blocks.
	tallied := got
	tallied.Hits, tallied.Misses, tallied.FreelistAllocs = 0, 0, 0
	tallied.Reclaims, tallied.Reclaimed = 0, 0
	tallied.RunRevives, tallied.RunReviveMisses = 0, 0
	if tallied != want {
		t.Fatalf("Stats() = %+v\nwant      %+v", tallied, want)
	}

	r.sf.ResetStats()
	if st := r.sf.Stats(); st != (Stats{}) {
		t.Fatalf("after ResetStats: %+v", st)
	}
	for si, s := range c.shards {
		if s.allocs != 0 || s.hits != 0 || s.misses != 0 || s.frees != 0 {
			t.Fatalf("shard %d kept counts after ResetStats", si)
		}
	}
	ctx := r.m.Ctx(0)
	b, err := r.sf.Alloc(ctx, pages[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	r.sf.Free(ctx, b)
	if st := r.sf.Stats(); st.Allocs != 1 || st.Frees != 1 || st.Hits+st.Misses != 1 {
		t.Fatalf("one alloc/free after ResetStats: %+v", st)
	}

	// Concurrent churn over every entry point: the shares sum to a
	// balanced ledger at drain.
	var wg sync.WaitGroup
	for w := 0; w < r.m.NumCPUs(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := r.m.Ctx(w)
			for i := 0; i < 300; i++ {
				n := 1 + (i+w)%4
				ext := pages[(i*7+w*13)%(len(pages)-n):][:n]
				switch i % 3 {
				case 0:
					b, err := r.sf.Alloc(ctx, ext[0], 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.sf.Free(ctx, b)
				case 1:
					bufs, err := r.sf.AllocBatch(ctx, ext, 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.sf.FreeBatch(ctx, bufs)
				case 2:
					run, err := r.sf.AllocRun(ctx, ext, 0)
					if err != nil {
						t.Error(err)
						return
					}
					r.sf.FreeRun(ctx, run)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.sf.Stats(); st.Allocs != st.Frees || st.Allocs == 1 {
		t.Fatalf("after concurrent churn: allocs %d, frees %d", st.Allocs, st.Frees)
	}
}
