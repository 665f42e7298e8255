package sfbuf

// Unit and economy tests for the vectored mapping API: AllocBatch and
// FreeBatch on every engine.  The differential and fuzz harnesses cover
// trace-level semantics; this file pins down the per-engine contracts —
// rollback on failure, capacity guards, loop-equivalence on the paper's
// cache, and the lock/shootdown economy the sharded fast path exists for.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func allocPages(t *testing.T, m *smp.Machine, n int) []*vm.Page {
	t.Helper()
	pages := make([]*vm.Page, n)
	for i := range pages {
		pg, err := m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i)
		pages[i] = pg
	}
	return pages
}

func TestShardedAllocBatchBasic(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 32, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 8)

	bufs, err := r.sf.AllocBatch(ctx, pages, Private)
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != len(pages) {
		t.Fatalf("got %d bufs for %d pages", len(bufs), len(pages))
	}
	for i, b := range bufs {
		if b.Page() != pages[i] {
			t.Fatalf("buf %d maps wrong page", i)
		}
		got, err := r.pm.Translate(ctx, b.KVA(), false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data()[0] != byte(i) {
			t.Fatalf("buf %d reads %#x, want %#x", i, got.Data()[0], byte(i))
		}
	}
	s := r.sf.Stats()
	if s.BatchAllocs != 1 || s.BatchPages != 8 || s.Allocs != 8 || s.Misses != 8 {
		t.Fatalf("stats after batch = %+v", s)
	}

	// A second batch over the same pages is all hits, still one shard
	// round per shard.
	again, err := r.sf.AllocBatch(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != bufs[i] {
			t.Fatalf("batch reuse did not share mapping %d", i)
		}
	}
	if s := r.sf.Stats(); s.Hits != 8 {
		t.Fatalf("hits = %d, want 8", s.Hits)
	}
	r.sf.FreeBatch(ctx, again)
	r.sf.FreeBatch(ctx, bufs)
	s = r.sf.Stats()
	if s.Allocs != s.Frees || s.BatchFrees != 2 {
		t.Fatalf("drain stats = %+v", s)
	}
	if got := r.sf.InactiveLen(); got != 32 {
		t.Fatalf("inactive = %d, want 32", got)
	}
}

func TestShardedAllocBatchEmptyAndOversized(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	ctx := r.m.Ctx(0)
	if bufs, err := r.sf.AllocBatch(ctx, nil, 0); err != nil || bufs != nil {
		t.Fatalf("empty batch = %v, %v", bufs, err)
	}
	pages := allocPages(t, r.m, 9)
	if _, err := r.sf.AllocBatch(ctx, pages, 0); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch error = %v, want ErrBatchTooLarge", err)
	}
	if s := r.sf.Stats(); s.Allocs != 0 {
		t.Fatalf("failed batch counted allocs: %+v", s)
	}
}

// TestShardedAllocBatchNoWaitRollback pins the unwind contract: a batch
// that cannot complete under NoWait releases every reference it already
// took and leaves no statistics skew.
func TestShardedAllocBatchNoWaitRollback(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 4, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 4)

	// Pin two buffers so a 4-page batch of fresh pages cannot finish.
	held, err := r.sf.AllocBatch(ctx, pages[:2], 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := allocPages(t, r.m, 4)
	if _, err := r.sf.AllocBatch(ctx, fresh, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("batch over pinned cache = %v, want ErrWouldBlock", err)
	}
	s := r.sf.Stats()
	if s.WouldBlock != 1 {
		t.Fatalf("WouldBlock = %d, want 1", s.WouldBlock)
	}
	// The failed batch must not leak references: everything but the two
	// held buffers is unreferenced again.
	if got := r.sf.InactiveLen(); got != 2 {
		t.Fatalf("inactive = %d, want 2 after rollback", got)
	}
	r.sf.FreeBatch(ctx, held)
	s = r.sf.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d after rollback drain", s.Allocs, s.Frees)
	}
}

// TestShardedFreeBatchMixesWithSingles checks that FreeBatch accepts any
// combination of batch- and single-allocated buffers on the cache engines.
func TestShardedFreeBatchMixesWithSingles(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 16, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 6)
	var bufs []*Buf
	for _, pg := range pages[:3] {
		b, err := r.sf.Alloc(ctx, pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	batch, err := r.sf.AllocBatch(ctx, pages[3:], Private)
	if err != nil {
		t.Fatal(err)
	}
	bufs = append(bufs, batch...)
	r.sf.FreeBatch(ctx, bufs)
	s := r.sf.Stats()
	if s.Allocs != 6 || s.Frees != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if got := r.sf.InactiveLen(); got != 16 {
		t.Fatalf("inactive = %d, want 16", got)
	}
}

// TestShardedFreeBatchEagerTeardown verifies the single-flush promise:
// under eager teardown a whole batch's invalidation debt retires in one
// queued shootdown flush instead of one flush per buffer.
func TestShardedFreeBatchEagerTeardown(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 16, ShardedConfig{})
	r.sf.Ablate(AblateLazyTeardown)
	ctx := r.m.Ctx(0)
	pages := allocPages(t, r.m, 8)
	bufs, err := r.sf.AllocBatch(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bufs {
		if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
			t.Fatal(err)
		}
	}
	before := r.m.SnapshotCounters()
	r.sf.FreeBatch(ctx, bufs)
	d := r.m.SnapshotCounters().Sub(before)
	if d.BatchedFlushes != 1 {
		t.Fatalf("eager batch teardown used %d flushes, want 1", d.BatchedFlushes)
	}
	if d.BatchedInv != 8 {
		t.Fatalf("flush retired %d invalidations, want 8", d.BatchedInv)
	}
	// Torn-down buffers are clean: remapping them needs no invalidation.
	before = r.m.SnapshotCounters()
	again, err := r.sf.AllocBatch(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	d = r.m.SnapshotCounters().Sub(before)
	if d.LocalInv != 0 || d.RemoteInvIssued != 0 {
		t.Fatalf("remapping clean buffers invalidated: %+v", d)
	}
	r.sf.Ablate(0)
	r.sf.FreeBatch(ctx, again)
}

// TestGlobalCacheBatchIsLoopIdentical proves the figure-reproduction
// property at the engine level: on the paper's global-lock cache, a
// vectored request charges exactly the cycles, locks and invalidations of
// the equivalent single-page sequence and leaves identical cache state.
func TestGlobalCacheBatchIsLoopIdentical(t *testing.T) {
	run := func(batched bool) (cyc int64, snap smp.Snapshot, st Stats) {
		r := newI386Rig(t, arch.XeonMPHTT(), 16)
		ctx := r.m.Ctx(0)
		pages := allocPages(t, r.m, 8)
		for round := 0; round < 6; round++ {
			if batched {
				bufs, err := r.sf.AllocBatch(ctx, pages, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bufs {
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
				}
				r.sf.FreeBatch(ctx, bufs)
			} else {
				bufs := make([]*Buf, 0, len(pages))
				for _, pg := range pages {
					b, err := r.sf.Alloc(ctx, pg, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
					bufs = append(bufs, b)
				}
				for _, b := range bufs {
					r.sf.Free(ctx, b)
				}
			}
		}
		return int64(r.m.TotalCycles()), r.m.SnapshotCounters(), r.sf.Stats()
	}
	bc, bs, bst := run(true)
	lc, ls, lst := run(false)
	if bc != lc {
		t.Errorf("cycles: batch %d != loop %d", bc, lc)
	}
	if bs != ls {
		t.Errorf("counters: batch %+v != loop %+v", bs, ls)
	}
	bst.BatchAllocs, bst.BatchFrees, bst.BatchPages = 0, 0, 0
	if bst != lst {
		t.Errorf("mapper stats: batch %+v != loop %+v", bst, lst)
	}
}

func TestNativeBatchPredicate(t *testing.T) {
	m := smp.NewMachine(arch.XeonMPHTT(), 256, false)
	pm := pmap.New(m)
	arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	sharded, err := NewI386Sharded(m, pm, arena, 32, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	global, err := NewI386(m, pm, arena, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !NativeBatch(sharded) {
		t.Error("sharded i386 must batch natively")
	}
	if NativeBatch(global) {
		t.Error("global-lock i386 must not claim native batching")
	}

	om := smp.NewMachine(arch.OpteronMP(), 64, false)
	opm := pmap.New(om)
	if !NativeBatch(NewAMD64(om, opm)) {
		t.Error("amd64 direct map must batch natively")
	}
	oarena := kva.NewArena(pmap.KVABaseAMD64, pmap.KVASizeAMD64)
	if !NativeBatch(NewOriginal(om, opm, oarena)) {
		t.Error("original kernel must batch natively (pmap_qenter)")
	}
}

func TestAMD64Batch(t *testing.T) {
	m, pm, sf := newAMD64Rig(t)
	ctx := m.Ctx(0)
	pages := allocPages(t, m, 6)
	bufs, err := sf.AllocBatch(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		if b.KVA() != pm.DirectVA(pages[i]) {
			t.Fatalf("buf %d is not the direct-map view", i)
		}
	}
	sf.FreeBatch(ctx, bufs)
	if c := m.Counters(); c.LocalInv.Load() != 0 || c.RemoteInvIssued.Load() != 0 {
		t.Fatal("amd64 batch must never invalidate")
	}
	st := sf.Stats()
	if st.Allocs != 6 || st.Frees != 6 || st.BatchAllocs != 1 || st.BatchFrees != 1 || st.BatchPages != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestShardedFreeBatchWakesAllSleepers pins the batch wakeup contract:
// one FreeBatch that returns N buffers must be able to satisfy N
// sleepers.  A single Signal would wake one, which can resolve via a
// hash hit without ever re-signalling, stranding the rest forever on
// buffers that sit free on the inactive lists.
func TestShardedFreeBatchWakesAllSleepers(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 4, ShardedConfig{})
	ctx := r.m.Ctx(0)
	heldPages := allocPages(t, r.m, 4)
	held, err := r.sf.AllocBatch(ctx, heldPages, 0)
	if err != nil {
		t.Fatal(err)
	}
	const sleepers = 3
	fresh := allocPages(t, r.m, sleepers)
	done := make(chan error, sleepers)
	for i := 0; i < sleepers; i++ {
		go func(i int) {
			sctx := r.m.Ctx(i % r.m.NumCPUs())
			b, err := r.sf.Alloc(sctx, fresh[i], 0)
			if err == nil {
				r.sf.Free(sctx, b)
			}
			done <- err
		}(i)
	}
	for r.sf.Stats().Sleeps < sleepers {
		time.Sleep(time.Millisecond)
	}
	r.sf.FreeBatch(ctx, held)
	for i := 0; i < sleepers; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("sleeper stranded: FreeBatch woke only %d of %d sleepers", i, sleepers)
		}
	}
}

// TestShardedConcurrentStarvingBatches pins the starvation serializer:
// two batches each under the capacity guard but jointly over it must not
// deadlock holding partial runs (4+4 of an 8-buffer cache, both asleep).
func TestShardedConcurrentStarvingBatches(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	setA := allocPages(t, r.m, 5)
	setB := allocPages(t, r.m, 5)
	finished := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for w, set := range [][]*vm.Page{setA, setB} {
			wg.Add(1)
			go func(w int, set []*vm.Page) {
				defer wg.Done()
				ctx := r.m.Ctx(w % r.m.NumCPUs())
				for i := 0; i < 50; i++ {
					bufs, err := r.sf.AllocBatch(ctx, set, 0) // blocking
					if err != nil {
						t.Error(err)
						return
					}
					for _, b := range bufs {
						if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
							t.Error(err)
							return
						}
					}
					r.sf.FreeBatch(ctx, bufs)
				}
			}(w, set)
		}
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent starving batches deadlocked")
	}
	if s := r.sf.Stats(); s.Allocs != s.Frees {
		t.Fatalf("allocs %d != frees %d", s.Allocs, s.Frees)
	}
}

// TestVectoredLockAndShootdownEconomy enforces the PR's acceptance
// criterion: on contended churn with batch=16, the sharded vectored path
// takes at least 2x fewer lock round trips per page than the equivalent
// single-page sequence, and no more shootdown rounds per page.
func TestVectoredLockAndShootdownEconomy(t *testing.T) {
	const (
		entries = 128
		batch   = 16
		rounds  = 250
	)
	run := func(batched bool) (locksPerPage, sdRoundsPerPage float64) {
		r := newShardedRig(t, arch.XeonMPHTT(), entries, ShardedConfig{})
		pages := allocPages(t, r.m, 4*entries)
		ncpu := r.m.NumCPUs()
		scratch := make([]*vm.Page, batch)
		for i := 0; i < rounds; i++ {
			ctx := r.m.Ctx(i % ncpu)
			for j := 0; j < batch; j++ {
				scratch[j] = pages[(i*batch*3+j*7)%len(pages)]
			}
			if batched {
				bufs, err := r.sf.AllocBatch(ctx, scratch, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range bufs {
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
				}
				r.sf.FreeBatch(ctx, bufs)
			} else {
				bufs := make([]*Buf, 0, batch)
				for _, pg := range scratch {
					b, err := r.sf.Alloc(ctx, pg, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
						t.Fatal(err)
					}
					bufs = append(bufs, b)
				}
				for _, b := range bufs {
					r.sf.Free(ctx, b)
				}
			}
		}
		snap := r.m.SnapshotCounters()
		pagesMoved := float64(rounds * batch)
		return float64(snap.LockAcq) / pagesMoved, float64(snap.RemoteInvIssued) / pagesMoved
	}
	bLocks, bRounds := run(true)
	sLocks, sRounds := run(false)
	t.Logf("locks/page: batch %.3f vs single %.3f; shootdown rounds/page: batch %.4f vs single %.4f",
		bLocks, sLocks, bRounds, sRounds)
	if bLocks*2 > sLocks {
		t.Errorf("vectored path locks/page = %.3f, want <= half of single-page %.3f", bLocks, sLocks)
	}
	if bRounds > sRounds {
		t.Errorf("vectored path shootdown rounds/page = %.4f, want <= single-page %.4f", bRounds, sRounds)
	}
}
