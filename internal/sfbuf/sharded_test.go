package sfbuf

import (
	"errors"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

type shardedRig struct {
	m     *smp.Machine
	pm    *pmap.Pmap
	arena *kva.Arena
	sf    *I386
}

func newShardedRig(t *testing.T, p arch.Platform, entries int, cfg ShardedConfig) *shardedRig {
	t.Helper()
	m := smp.NewMachine(p, 4096, true)
	pm := pmap.New(m)
	arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
	sf, err := NewI386Sharded(m, pm, arena, entries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &shardedRig{m: m, pm: pm, arena: arena, sf: sf}
}

func (r *shardedRig) page(t *testing.T) *vm.Page {
	t.Helper()
	pg, err := r.m.Phys.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestShardedAllocFreeBasic(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pg := r.page(t)
	b, err := r.sf.Alloc(ctx, pg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Page() != pg || b.KVA() == 0 {
		t.Fatal("accessors wrong")
	}
	got, err := r.pm.Translate(ctx, b.KVA(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got != pg {
		t.Fatal("mapping resolves to wrong page")
	}
	r.sf.Free(ctx, b)
	if r.sf.InactiveLen() != 8 {
		t.Fatalf("inactive = %d, want 8 (all buffers unreferenced)", r.sf.InactiveLen())
	}
}

// TestShardedMissNeedsNoInvalidation is the engine's central property: a
// miss served from clean stock installs a SHARED mapping without a single
// TLB invalidation, local or remote — the global cache's widening
// shootdown is gone, not deferred.
func TestShardedMissNeedsNoInvalidation(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 16, ShardedConfig{})
	ctx := r.m.Ctx(0)
	for i := 0; i < 8; i++ {
		pg := r.page(t)
		b, err := r.sf.Alloc(ctx, pg, 0) // shared
		if err != nil {
			t.Fatal(err)
		}
		// Every CPU may dereference immediately: cpumask is truthful.
		_, mask, ok := r.sf.LookupRef(pg)
		if !ok || mask != r.m.AllCPUs() {
			t.Fatalf("cpumask = %v, want all CPUs", mask)
		}
		for cpu := 0; cpu < r.m.NumCPUs(); cpu++ {
			if g, err := r.pm.Translate(r.m.Ctx(cpu), b.KVA(), false); err != nil || g != pg {
				t.Fatalf("cpu %d: translate got (%v, %v)", cpu, g, err)
			}
		}
		r.sf.Free(ctx, b)
	}
	c := r.m.SnapshotCounters()
	if c.LocalInv != 0 || c.RemoteInvIssued != 0 {
		t.Fatalf("clean misses invalidated: local %d remote %d, want 0/0", c.LocalInv, c.RemoteInvIssued)
	}
}

func TestShardedSharingAndRevival(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pg := r.page(t)
	b1, _ := r.sf.Alloc(ctx, pg, 0)
	b2, _ := r.sf.Alloc(ctx, pg, 0)
	if b1 != b2 {
		t.Fatal("same page must share one sf_buf")
	}
	if ref, _, _ := r.sf.LookupRef(pg); ref != 2 {
		t.Fatalf("ref = %d, want 2", ref)
	}
	r.sf.Free(ctx, b1)
	r.sf.Free(ctx, b2)
	if r.sf.ValidMappings() != 1 {
		t.Fatal("latent mapping must survive the last free")
	}
	b3, _ := r.sf.Alloc(ctx, pg, 0)
	if b3 != b1 {
		t.Fatal("revival must return the same sf_buf")
	}
	s := r.sf.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", s)
	}
	r.sf.Free(ctx, b3)
}

// TestShardedBatchedReclaimCoalescesShootdowns: a shared churn workload
// on the global cache costs one IPI round per miss; here the same debt is
// paid once per reclaim batch.
func TestShardedBatchedReclaimCoalescesShootdowns(t *testing.T) {
	const entries, batch = 32, 8
	r := newShardedRig(t, arch.XeonMPHTT(), entries,
		ShardedConfig{ReclaimBatch: batch, PerCPUFree: 2})
	ctx := r.m.Ctx(0)
	pages := make([]*vm.Page, 4*entries)
	for i := range pages {
		pages[i] = r.page(t)
	}
	const ops = 1024
	for i := 0; i < ops; i++ {
		b, err := r.sf.Alloc(ctx, pages[i%len(pages)], 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.pm.Translate(ctx, b.KVA(), false); err != nil {
			t.Fatal(err)
		}
		r.sf.Free(ctx, b)
	}
	s := r.sf.Stats()
	c := r.m.SnapshotCounters()
	if s.Reclaims == 0 || s.Reclaimed == 0 {
		t.Fatalf("churn must reclaim, stats %+v", s)
	}
	// At most one IPI round per reclaim round (some reclaim only
	// unaccessed mappings and owe nothing).
	if c.RemoteInvIssued > s.Reclaims {
		t.Fatalf("remote rounds %d > reclaim rounds %d: batching broken", c.RemoteInvIssued, s.Reclaims)
	}
	// The global design would pay roughly one round per miss.
	if c.RemoteInvIssued*uint64(batch)/2 > s.Misses {
		t.Fatalf("remote rounds %d for %d misses: expected ~1/%d coalescing",
			c.RemoteInvIssued, s.Misses, batch)
	}
	if c.BatchedFlushes == 0 || c.BatchedInv < c.BatchedFlushes {
		t.Fatalf("batched counters = %d flushes / %d inv", c.BatchedFlushes, c.BatchedInv)
	}
}

// TestShardedPrivateChurnNeverIPIs: tlbmask tracking means a CPU-private
// workload reclaims without interrupting other processors at all.
func TestShardedPrivateChurnNeverIPIs(t *testing.T) {
	const entries = 16
	r := newShardedRig(t, arch.XeonMP(), entries, ShardedConfig{ReclaimBatch: 4})
	ctx := r.m.Ctx(0)
	pages := make([]*vm.Page, 4*entries)
	for i := range pages {
		pages[i] = r.page(t)
	}
	for i := 0; i < 512; i++ {
		b, err := r.sf.Alloc(ctx, pages[i%len(pages)], Private)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.pm.Translate(ctx, b.KVA(), true); err != nil {
			t.Fatal(err)
		}
		r.sf.Free(ctx, b)
	}
	if s := r.sf.Stats(); s.Reclaims == 0 {
		t.Fatalf("churn must reclaim, stats %+v", s)
	}
	if got := r.m.Counters().RemoteInvIssued.Load(); got != 0 {
		t.Fatalf("private churn issued %d remote rounds, want 0", got)
	}
	if got := r.m.Counters().LocalInv.Load(); got == 0 {
		t.Fatal("accessed private mappings still owe local purges at reclaim")
	}
}

// TestShardedReclaimPurgesRemoteStaleEntries proves through the honest
// MMU that the batched teardown leaves no dereferenceable stale mapping:
// a remote CPU's cached translation dies in the reclaim round, before the
// virtual address is reused for another page.
func TestShardedReclaimPurgesRemoteStaleEntries(t *testing.T) {
	// One buffer total: every new page forces a reclaim of the previous
	// mapping.
	r := newShardedRig(t, arch.XeonMP(), 1, ShardedConfig{})
	ctx0, ctx1 := r.m.Ctx(0), r.m.Ctx(1)
	pOld, pNew := r.page(t), r.page(t)
	pOld.Data()[0] = 0xAA
	pNew.Data()[0] = 0xBB

	b, _ := r.sf.Alloc(ctx1, pOld, 0)
	va := b.KVA()
	if g, _ := r.pm.Translate(ctx1, va, false); g.Data()[0] != 0xAA {
		t.Fatal("epoch-1 read wrong")
	}
	if !r.m.CPU(1).TLBResident(pmap.VPN(va)) {
		t.Fatal("setup: CPU 1 should cache the translation")
	}
	r.sf.Free(ctx1, b)

	// CPU 0 takes the only buffer for pNew; the reclaim round must shoot
	// CPU 1's entry down even though CPU 0 initiates.
	b2, err := r.sf.Alloc(ctx0, pNew, Private)
	if err != nil {
		t.Fatal(err)
	}
	if b2.KVA() != va {
		t.Fatal("test requires buffer reuse")
	}
	if r.m.CPU(1).TLBResident(pmap.VPN(va)) {
		t.Fatal("reclaim left CPU 1's stale translation alive")
	}
	// And the proof by data: CPU 1 reads the NEW page's bytes.
	if g, err := r.pm.Translate(ctx1, va, false); err != nil || g.Data()[0] != 0xBB {
		t.Fatalf("CPU 1 read (%v, %v): stale mapping dereferenced", g, err)
	}
	r.sf.Free(ctx0, b2)
}

func TestShardedNoWaitAndSleep(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 1, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pg1, pg2 := r.page(t), r.page(t)
	b1, err := r.sf.Alloc(ctx, pg1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.sf.Alloc(ctx, pg2, NoWait); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v, want ErrWouldBlock", err)
	}
	done := make(chan *Buf)
	go func() {
		b, err := r.sf.Alloc(r.m.Ctx(1), pg2, 0)
		if err != nil {
			panic(err)
		}
		done <- b
	}()
	for r.sf.Stats().Sleeps == 0 {
	}
	r.sf.Free(ctx, b1)
	b2 := <-done
	if b2.Page() != pg2 {
		t.Fatal("woken allocation mapped wrong page")
	}
	r.sf.Free(r.m.Ctx(1), b2)
}

func TestShardedInterruptibleSleep(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 1, ShardedConfig{})
	ctx := r.m.Ctx(0)
	b, _ := r.sf.Alloc(ctx, r.page(t), 0)
	ctx2 := r.m.Ctx(1)
	done := make(chan error)
	go func() {
		_, err := r.sf.Alloc(ctx2, r.page(t), Catch)
		done <- err
	}()
	for r.sf.Stats().Sleeps == 0 {
	}
	ctx2.Interrupt()
	r.sf.InterruptWakeup()
	if err := <-done; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	r.sf.Free(ctx, b)
}

// TestShardedInterruptedSleeperPassesWakeup: when the one free-signal
// lands on a sleeper that aborts with ErrInterrupted, it must pass the
// wakeup on rather than strand the other sleeper with a buffer free.
func TestShardedInterruptedSleeperPassesWakeup(t *testing.T) {
	r := newShardedRig(t, arch.XeonMPHTT(), 1, ShardedConfig{})
	ctx := r.m.Ctx(0)
	pgA, pgB := r.page(t), r.page(t)
	b, err := r.sf.Alloc(ctx, r.page(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxA, ctxB := r.m.Ctx(1), r.m.Ctx(2)
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() {
		_, err := r.sf.Alloc(ctxA, pgA, Catch)
		errA <- err
	}()
	for r.sf.Stats().Sleeps < 1 {
	}
	go func() {
		bb, err := r.sf.Alloc(ctxB, pgB, 0)
		if err == nil {
			r.sf.Free(ctxB, bb)
		}
		errB <- err
	}()
	for r.sf.Stats().Sleeps < 2 {
	}
	ctxA.Interrupt() // pending signal; no broadcast
	r.sf.Free(ctx, b)
	if err := <-errB; err != nil {
		t.Fatalf("uninterrupted sleeper: %v", err)
	}
	if err := <-errA; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sleeper: err = %v, want ErrInterrupted", err)
	}
	if got := r.sf.InactiveLen(); got != 1 {
		t.Fatalf("inactive = %d, want 1", got)
	}
}

func TestShardedDoubleFreePanics(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 2, ShardedConfig{})
	ctx := r.m.Ctx(0)
	b, _ := r.sf.Alloc(ctx, r.page(t), 0)
	r.sf.Free(ctx, b)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	r.sf.Free(ctx, b)
}

// TestShardedDoubleFreeAfterReclaimPanics: the misuse diagnostic must
// survive the buffer being reclaimed (page cleared) between the frees.
func TestShardedDoubleFreeAfterReclaimPanics(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 8, ShardedConfig{ReclaimBatch: 4})
	ctx := r.m.Ctx(0)
	bufs := make([]*Buf, 8)
	for i := range bufs {
		b, err := r.sf.Alloc(ctx, r.page(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		r.sf.Free(ctx, b)
	}
	// Exhaust the clean stock so the next miss reclaims a batch; the
	// surplus victims end up clean (page == nil) on the freelists.
	if _, err := r.sf.Alloc(ctx, r.page(t), 0); err != nil {
		t.Fatal(err)
	}
	var clean *Buf
	for _, b := range bufs {
		if b.Page() == nil {
			clean = b
			break
		}
	}
	if clean == nil {
		t.Fatal("setup: reclaim left no clean buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("free of a reclaimed, unreferenced buffer must panic")
		}
	}()
	r.sf.Free(ctx, clean)
}

func TestShardedAblateSharing(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 4, ShardedConfig{})
	r.sf.Ablate(AblateSharing)
	ctx := r.m.Ctx(0)
	pg := r.page(t)
	b1, _ := r.sf.Alloc(ctx, pg, 0)
	b2, _ := r.sf.Alloc(ctx, pg, 0)
	if b1 == b2 || b1.KVA() == b2.KVA() {
		t.Fatal("sharing ablated but buffers alias")
	}
	for _, b := range []*Buf{b1, b2} {
		if g, _ := r.pm.Translate(ctx, b.KVA(), false); g != pg {
			t.Fatal("aliased mapping resolves wrong")
		}
	}
	if r.sf.Stats().Hits != 0 {
		t.Fatal("no hits possible with sharing ablated")
	}
	r.sf.Free(ctx, b1)
	r.sf.Free(ctx, b2)
}

func TestShardedAblateLazyTeardown(t *testing.T) {
	r := newShardedRig(t, arch.XeonMP(), 4, ShardedConfig{})
	r.sf.Ablate(AblateLazyTeardown)
	ctx := r.m.Ctx(0)
	pg := r.page(t)
	b, _ := r.sf.Alloc(ctx, pg, 0)
	r.pm.Translate(ctx, b.KVA(), false)
	va := b.KVA()
	r.sf.Free(ctx, b)
	if pte, ok := r.pm.Probe(va); ok && pte.Valid {
		t.Fatal("eager teardown left the mapping valid")
	}
	if r.sf.ValidMappings() != 0 {
		t.Fatal("eager teardown left the hash populated")
	}
	b2, _ := r.sf.Alloc(ctx, pg, 0)
	if got := r.sf.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2 (no latent revival)", got)
	}
	r.sf.Free(ctx, b2)
}

func TestShardedConfigDefaults(t *testing.T) {
	cfg := ShardedConfig{}.withDefaults(4, 1024)
	if cfg.Shards != 8 {
		t.Fatalf("shards = %d, want 8 (2x CPUs)", cfg.Shards)
	}
	if cfg.ReclaimBatch != DefaultReclaimBatch {
		t.Fatalf("reclaim batch = %d", cfg.ReclaimBatch)
	}
	if cfg.PerCPUFree < cfg.ReclaimBatch {
		t.Fatalf("per-CPU freelist %d should absorb a reclaim batch %d", cfg.PerCPUFree, cfg.ReclaimBatch)
	}
	tiny := ShardedConfig{}.withDefaults(4, 2)
	if tiny.Shards != 1 || tiny.PerCPUFree != 1 || tiny.ReclaimBatch != 1 {
		t.Fatalf("tiny cache config = %+v, want all 1", tiny)
	}
	rounded := ShardedConfig{Shards: 5}.withDefaults(4, 1024)
	if rounded.Shards != 8 {
		t.Fatalf("shards = %d, want rounded to 8", rounded.Shards)
	}
	if got := (ShardedConfig{}).withDefaults(64, 1<<20).Shards; got != 128 {
		t.Fatalf("big machine shards = %d, want 128", got)
	}
}
