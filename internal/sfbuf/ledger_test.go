package sfbuf

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// TestAllocLedgerSymmetry pins the ledger rule on every engine that can
// run out: a failed NoWait single, batch or run counts only in WouldBlock.
// Each rig holds mappings until exactly one buffer the batch needs is
// left, so the batch and run fail mid-way and must unwind without
// touching Allocs, Frees or the batch and run counters.
// The event counters record work the failed attempt really did (hits,
// misses, freelist hits, reclaim rounds, VA-allocator trips) and may move.
func TestAllocLedgerSymmetry(t *testing.T) {
	type rig struct {
		name string
		m    *smp.Machine
		sf   Mapper
		held []*vm.Page // mapped and held, leaving one buffer try needs
		try  []*vm.Page // a batch whose last page finds no buffer
	}
	i386 := func(name string, entries int, sharded bool) rig {
		m := smp.NewMachine(arch.XeonMP(), 64, true)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		sf, err := NewI386(m, pm, arena, entries)
		if sharded {
			sf, err = NewI386Sharded(m, pm, arena, entries, ShardedConfig{})
		}
		if err != nil {
			t.Fatal(err)
		}
		pages := allocPages(t, m, entries+1)
		return rig{name, m, sf, pages[:entries-1], pages[entries-1:]}
	}
	original := func(name string, p arch.Platform) rig {
		m := smp.NewMachine(p, 64, true)
		// A three-page arena: two held mappings leave one address.
		sf := NewOriginal(m, pmap.New(m), kva.NewArena(pmap.KVABaseI386, 3*vm.PageSize))
		pages := allocPages(t, m, 4)
		return rig{name, m, sf, pages[:2], pages[2:]}
	}
	rigs := []rig{
		i386("global", 2, false),
		i386("sharded", 4, true),
		original("original-i386", arch.XeonMP()),
		original("original-amd64", arch.OpteronMP()),
	}
	for _, r := range rigs {
		t.Run(r.name, func(t *testing.T) {
			ctx := r.m.Ctx(0)
			var held []*Buf
			for _, pg := range r.held {
				b, err := r.sf.Alloc(ctx, pg, 0)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, b)
			}
			before := r.sf.Stats()
			if _, err := r.sf.AllocBatch(ctx, r.try, NoWait); !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("batch = %v, want ErrWouldBlock", err)
			}
			if _, err := r.sf.AllocRun(ctx, r.try, NoWait); !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("run = %v, want ErrWouldBlock", err)
			}
			st := r.sf.Stats()
			want := before
			want.WouldBlock += 2
			want.Hits, want.Misses, want.FreelistAllocs = st.Hits, st.Misses, st.FreelistAllocs
			want.Reclaims, want.Reclaimed, want.VAAllocs = st.Reclaims, st.Reclaimed, st.VAAllocs
			if st != want {
				t.Errorf("after failed batch and run:\n got  %+v\n want %+v", st, want)
			}
			// A single fails the same way once the last buffer is taken.
			n := len(r.try)
			b, err := r.sf.Alloc(ctx, r.try[n-2], 0)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, b)
			if _, err := r.sf.Alloc(ctx, r.try[n-1], NoWait); !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("single = %v, want ErrWouldBlock", err)
			}
			st = r.sf.Stats()
			if st.Allocs != before.Allocs+1 || st.WouldBlock != before.WouldBlock+3 {
				t.Errorf("Allocs %d, WouldBlock %d: want %d, %d",
					st.Allocs, st.WouldBlock, before.Allocs+1, before.WouldBlock+3)
			}
			for _, b := range held {
				r.sf.Free(ctx, b)
			}
			if st := r.sf.Stats(); st.Allocs != st.Frees {
				t.Errorf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
			}
		})
	}
}

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
