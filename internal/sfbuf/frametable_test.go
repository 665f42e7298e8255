package sfbuf

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

// checkFrameTable states the frame-indexed hash's invariant over a
// quiesced cache: slot i holds nothing or a buffer whose page answers
// with frame i, each shard's count is the number of occupied slots among
// the frames that hash to it, and the counts sum to validMappings().
func checkFrameTable(c *shardedCache) error {
	perShard := make([]int, len(c.shards))
	for i, b := range c.table {
		if b == nil {
			continue
		}
		if b.page == nil || b.page.Frame() != uint64(i) {
			return fmt.Errorf("table[%d] holds a buffer of page %v", i, b.page)
		}
		perShard[c.shardIdx(uint64(i))]++
	}
	total := 0
	for si, s := range c.shards {
		if s.valid != perShard[si] {
			return fmt.Errorf("shard %d counts %d mappings, its table slots hold %d", si, s.valid, perShard[si])
		}
		total += s.valid
	}
	if got := c.validMappings(); got != total {
		return fmt.Errorf("validMappings() = %d, shard counts sum to %d", got, total)
	}
	return nil
}

// TestFrameTableInvariant drives seeded mixes of every operation that
// installs or drops a table slot — single, vectored and run mappings,
// reclaim under a tiny cache, frees of mapped pages (stale entries), and
// background daemon passes that reclaim inactive entries ahead of
// demand — and checks the invariant after each step.
func TestFrameTableInvariant(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newShardedRig(t, arch.XeonMPHTT(), 24, ShardedConfig{ReclaimBatch: 3, PerCPUFree: 2})
		c := r.sf.c.(*shardedCache)
		d := NewDaemon(r.sf, DaemonConfig{})
		ncpu := r.m.NumCPUs()
		var pool []*vm.Page
		var bufs []*Buf
		var runs []*Run
		held := map[*vm.Page]int{} // live mapping references per page
		hold := func(pages []*vm.Page, d int) {
			for _, pg := range pages {
				held[pg] += d
			}
		}
		for step := 0; step < 1500; step++ {
			ctx := r.m.Ctx(rng.Intn(ncpu))
			switch op := rng.Intn(10); {
			case len(pool) < 8 || (op == 0 && step < 300):
				// Early on, grow the pool; later frees scatter it.
				for i := 0; i < 16; i++ {
					if pg, err := r.m.Phys.Alloc(); err == nil {
						pool = append(pool, pg)
					}
				}
			case op < 2:
				// Raw free of an unmapped-or-inactive page: its cache entry,
				// if any, goes stale at a free frame.
				if i := rng.Intn(len(pool)); held[pool[i]] == 0 {
					r.m.Phys.Free(pool[i])
					pool = append(pool[:i], pool[i+1:]...)
				}
			case op < 4:
				pg := pool[rng.Intn(len(pool))]
				if b, err := r.sf.Alloc(ctx, pg, NoWait); err == nil {
					bufs = append(bufs, b)
					held[pg]++
				} else if !errors.Is(err, ErrWouldBlock) {
					t.Fatal(err)
				}
			case op < 5:
				n := 2 + rng.Intn(5)
				at := rng.Intn(len(pool) - n)
				if got, err := r.sf.AllocBatch(ctx, pool[at:at+n], NoWait); err == nil {
					bufs = append(bufs, got...)
					hold(pool[at:at+n], 1)
				} else if !errors.Is(err, ErrWouldBlock) {
					t.Fatal(err)
				}
			case op < 6:
				n := 2 + rng.Intn(4)
				at := rng.Intn(len(pool) - n)
				if rn, err := r.sf.AllocRun(ctx, pool[at:at+n], NoWait); err == nil {
					runs = append(runs, rn)
					hold(rn.Pages(), 1)
				} else if !errors.Is(err, ErrWouldBlock) {
					t.Fatal(err)
				}
			case op < 8 && len(bufs) > 0:
				// Free a few at once, vectored or one by one.
				n := 1 + rng.Intn(min(4, len(bufs)))
				for _, b := range bufs[len(bufs)-n:] {
					held[b.Page()]--
				}
				if rng.Intn(2) == 0 {
					r.sf.FreeBatch(ctx, bufs[len(bufs)-n:])
				} else {
					for _, b := range bufs[len(bufs)-n:] {
						r.sf.Free(ctx, b)
					}
				}
				bufs = bufs[:len(bufs)-n]
			case op < 9 && len(runs) > 0:
				rn := runs[len(runs)-1]
				hold(rn.Pages(), -1)
				r.sf.FreeRun(ctx, rn)
				runs = runs[:len(runs)-1]
			default:
				d.Run(ctx, 1<<20)
			}
			if err := checkFrameTable(c); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		if d.Stats().RefilledBufs == 0 {
			t.Fatalf("seed %d: no daemon pass ever reclaimed a table slot: %+v", seed, d.Stats())
		}
	}
}
