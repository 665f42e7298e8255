package kernel

import (
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// TestSendExtentRecordReuse: a send extent's release state is recycled
// through its consumer, so a warmed window allocates nothing beyond the
// mapping layer's own batch; a record is never reused while one of its
// references is outstanding; and an Unref through a copy that outlived
// its window panics before it touches the window now using the record.
func TestSendExtentRecordReuse(t *testing.T) {
	k, err := Boot(Config{
		Platform:     arch.XeonMP(),
		Mapper:       SFBuf,
		Cache:        CacheSharded,
		Contig:       Off,
		PhysPages:    512,
		CacheEntries: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Plan.Runs || !k.Plan.BatchSend {
		t.Fatalf("plan %+v does not map send extents as batches", k.Plan)
	}
	c := k.Consumer("test-send-records")
	ctx := k.Ctx(0)
	all, err := k.M.Phys.AllocN(16)
	if err != nil {
		t.Fatal(err)
	}
	a, b := all[:8], all[8:]
	mapWired := func(pages []*vm.Page) Extent {
		t.Helper()
		for _, pg := range pages {
			pg.Wire()
		}
		e, err := c.MapSendExtent(ctx, pages)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Host cost: mapping a window and releasing it page by page costs no
	// more allocations than the bare batch underneath.  (Not under the
	// race detector, which randomly drops sync.Pool items, so the batch's
	// pooled scratch reallocates by chance.)
	window := func() {
		e := mapWired(a)
		release := e.Release()
		for range a {
			release(ctx)
		}
	}
	bare := func() {
		bufs, err := k.Map.AllocBatch(ctx, a, 0)
		if err != nil {
			t.Fatal(err)
		}
		k.Map.FreeBatch(ctx, bufs)
	}
	window()
	bare()
	if w, b := testing.AllocsPerRun(100, window), testing.AllocsPerRun(100, bare); w > b && !raceEnabled {
		t.Fatalf("a warmed send window allocated %.1f objects, the bare batch %.1f", w, b)
	}

	// Reuse: a record with a reference outstanding stays with its window.
	e1 := mapWired(a)
	e1.Drop(ctx, len(a)-1)
	e2 := mapWired(b)
	if e2.rec == e1.rec {
		t.Fatal("a record was reused while its window still held a reference")
	}
	e1.Unref(ctx) // the last reference: e1's record is free
	if a[0].Wired() {
		t.Fatal("the last reference did not unwire the window's pages")
	}
	e3 := mapWired(a)
	if e3.rec != e1.rec || e3.gen == e1.gen {
		t.Fatalf("the released record was not recycled under a new generation (same record %v, gen %d -> %d)",
			e3.rec == e1.rec, e1.gen, e3.gen)
	}

	// A stale copy: the generation check fires before any reference moves.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Unref through a recycled window's stale Extent did not panic")
			}
		}()
		e1.Unref(ctx)
	}()
	if got := e3.rec.refs.Load(); got != int32(len(a)) {
		t.Fatalf("the stale Unref moved the new window's references to %d, want %d", got, len(a))
	}
	e2.Drop(ctx, len(b))
	e3.Drop(ctx, len(a))
	for _, pg := range all {
		if pg.Wired() {
			t.Fatalf("%v still wired after every window was released", pg)
		}
	}
}

// TestSendExtentRecordsConcurrent: send windows are mapped on one
// goroutine and released on another — an ACK path on a different CPU —
// by two pairs sharing one consumer, so its record free list is taken and
// refilled from four goroutines at once.  Run with -race.
func TestSendExtentRecordsConcurrent(t *testing.T) {
	k, err := Boot(Config{Platform: arch.XeonMPHTT(), Mapper: SFBuf, Cache: CacheSharded, PhysPages: 512, CacheEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	if k.M.NumCPUs() < 4 {
		t.Fatalf("need 4 CPUs, platform has %d", k.M.NumCPUs())
	}
	c := k.Consumer("test-send-concurrent")
	const windows = 200
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pages, err := k.M.Phys.AllocN(8)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan Extent)
		wg.Add(2)
		go func(ctx *smp.Context) {
			defer wg.Done()
			defer close(ch)
			for i := 0; i < windows; i++ {
				for _, pg := range pages {
					pg.Wire()
				}
				e, err := c.MapSendExtent(ctx, pages)
				if err != nil {
					t.Error(err)
					return
				}
				ch <- e
			}
		}(k.Ctx(2 * p))
		go func(ctx *smp.Context) {
			defer wg.Done()
			for e := range ch {
				e.Drop(ctx, len(pages))
			}
		}(k.Ctx(2*p + 1))
		defer func() {
			for _, pg := range pages {
				if pg.Wired() {
					t.Errorf("%v still wired after every window was released", pg)
				}
			}
		}()
	}
	wg.Wait()
}
