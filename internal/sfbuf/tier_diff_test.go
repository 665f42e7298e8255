package sfbuf

// Differential and concurrency tests for tier migration.  The contract
// under test is the tentpole's invisibility half: MoveToTier may shuffle
// an extent's frames between the fast and slow tiers of a buddy pool —
// under mapping traffic, parked windows, raw churn and defrag passes —
// but it may never change one observable byte, leave a stale translation
// dereferenceable, or unbalance a ledger.  Engines that cannot tier
// (the global-lock cache, the original kernel, any untiered build)
// replay the same trace with the tier ops as no-ops, and everyone must
// end byte-identical.

import (
	"math/rand"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

// diffTierFast is the per-socket fast-frame count of the tiered builds:
// an eighth of the pool, small enough that the traces' working set
// genuinely straddles the boundary.
const diffTierFast = diffBuddyFrames / 8

// newDiffEnginesTiered is newDiffEnginesBuddy with the physical pool
// split into tiers: same buddy frames, same reservation, same engines
// and Migrators, plus SetTierSplit before any page is carved.
func newDiffEnginesTiered(t *testing.T, plat arch.Platform) []*diffEngine {
	t.Helper()
	spanOrder := 0
	for 1<<spanOrder < diffMigSpan {
		spanOrder++
	}
	build := func(name string, mk func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error)) *diffEngine {
		m := smp.NewMachineWithPhys(plat, vm.NewPhysMem(diffBuddyFrames, true))
		m.Phys.SetReservation(spanOrder, 2)
		m.Phys.SetTierSplit(diffTierFast)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		sf, err := mk(m, pm, arena)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]*vm.Page, diffPages)
		for i := range pages {
			pg, err := m.Phys.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pg.Data()[0] = byte(i)
			pages[i] = pg
		}
		e := &diffEngine{name: name, m: m, pm: pm, sf: sf, pages: pages}
		e.mig = NewMigrator(sf, MigrateConfig{Span: diffMigSpan, MaxResident: diffMigSpan / 2})
		return e
	}
	shardCfg := ShardedConfig{ReclaimBatch: 8, PerCPUFree: 4}
	return []*diffEngine{
		build("sharded", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			return NewI386Sharded(m, pm, arena, diffEntries, shardCfg)
		}),
		build("global", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			return NewI386(m, pm, arena, diffEntries)
		}),
		build("original", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			return NewOriginal(m, pm, arena), nil
		}),
	}
}

// genTraceTier builds a revive-biased mapping trace interleaved with raw
// physical churn (kind 10), frequent tier moves over random page bands
// (kind 11, alternating destinations so frames cross the boundary both
// ways), and occasional defrag passes (kind 9) so tier moves and
// evacuations compose on the same pool.
func genTraceTier(seed int64, ncpu int) []diffOp {
	base := genTraceBias(seed, ncpu, 25)
	rng := rand.New(rand.NewSource(seed * 104729))
	var out []diffOp
	churnLive := 0
	const churnCap = 420
	for i, op := range base {
		out = append(out, op)
		if i%2 == 0 {
			if churnLive < churnCap && (churnLive == 0 || rng.Intn(5) < 3) {
				n := 1 + rng.Intn(6)
				out = append(out, diffOp{kind: 10, count: n})
				churnLive += n
			} else {
				out = append(out, diffOp{kind: 10, val: 1, pick: rng.Intn(1 << 16)})
				churnLive--
			}
		}
		if i%7 == 6 {
			n := 1 + rng.Intn(8)
			out = append(out, diffOp{kind: 11, page: rng.Intn(diffPages - n), count: n,
				cpu: rng.Intn(ncpu), val: byte(rng.Intn(2))})
		}
		if i%40 == 39 {
			out = append(out, diffOp{kind: 9, count: 2, cpu: rng.Intn(ncpu)})
		}
	}
	return out
}

// TestDifferentialTiered replays tier-move traces against all three
// engines on TIERED buddy pools and against the untiered buddy builds of
// the same engines, and requires byte-identical observables across all
// six — a tiered pool whose keeper-driven moves change any observable,
// or an untiered build perturbed by the tier split's mere existence,
// diverges immediately.  The sharded tiered engine must actually move
// pages across the boundary (asserted via TierMoves), and every pool
// passes the structural free-list audit afterwards.
func TestDifferentialTiered(t *testing.T) {
	plat := arch.XeonMPHTT()
	var tierMovesTotal uint64
	for seed := int64(71); seed <= 73; seed++ {
		ops := genTraceTier(seed, plat.NumCPUs)
		var ref [diffPages]byte
		for i, e := range newDiffEnginesTiered(t, plat) {
			got := replayTrace(t, e, ops)
			if err := physcheck.Audit(e.m.Phys); err != nil {
				t.Fatalf("seed %d: tiered %s after replay: %v", seed, e.name, err)
			}
			if i == 0 {
				ref = got
				tierMovesTotal += e.mig.Stats().TierMoves
				continue
			}
			if got != ref {
				t.Fatalf("seed %d: tiered engine %s final bytes diverge from sharded", seed, e.name)
			}
		}
		for _, e := range newDiffEnginesBuddy(t, plat, 1) {
			got := replayTrace(t, e, ops)
			if err := physcheck.Audit(e.m.Phys); err != nil {
				t.Fatalf("seed %d: untiered %s after replay: %v", seed, e.name, err)
			}
			if got != ref {
				t.Fatalf("seed %d: untiered %s diverges from the tiered replay", seed, e.name)
			}
		}
	}
	if tierMovesTotal == 0 {
		t.Fatal("the tier traces never moved a page across the boundary — the harness is not exercising MoveToTier")
	}
}

// TestTierConcurrentStress is the -race stressor for tier migration: one
// goroutine bounces a shared extent between the tiers as fast as it can
// while churner goroutines map, read-verify and unmap the same extent's
// pages through the honest TLB.  The per-page quiescence bar means the
// mover skips whatever the churners hold at that instant — and no
// interleaving may surface a stale byte, leak a frame or unbalance the
// ledger.
func TestTierConcurrentStress(t *testing.T) {
	r := newMigrateRig(t, 512, 64, ShardedConfig{ReclaimBatch: 8, PerCPUFree: 4})
	r.m.Phys.SetTierSplit(128)
	const extLen = 32
	pages, err := r.m.Phys.AllocN(extLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range pages {
		pg.Data()[0] = byte(i + 1)
	}
	const (
		moveRounds  = 300
		churnRounds = 600
		churners    = 2
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := r.m.Ctx(3)
		for i := 0; i < moveRounds; i++ {
			r.mig.MoveToTier(ctx, pages, i%2, 0)
		}
	}()
	errs := make([]error, churners)
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := r.m.Ctx(c)
			for i := 0; i < churnRounds; i++ {
				idx := (i*3 + c*7) % extLen
				pg := pages[idx]
				b, aerr := r.sf.Alloc(ctx, pg, NoWait)
				if aerr != nil {
					continue // cache momentarily full: the stress goes on
				}
				got, terr := r.pm.Translate(ctx, b.KVA(), false)
				if terr != nil {
					errs[c] = terr
					return
				}
				// The page is pinned between Alloc and Free, so the mover
				// skips it: reading its byte here is race-free, and it must
				// be the stamp no matter which tier the frame sits in.
				if got.Data()[0] != byte(idx+1) {
					t.Errorf("churner %d round %d: page %d reads %#x, want %#x — stale byte surfaced mid-move",
						c, i, idx, got.Data()[0], byte(idx+1))
				}
				r.sf.Free(ctx, b)
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("churner %d: %v", c, err)
		}
	}
	// Quiesced: every byte must have ridden its page through the moves.
	for i, pg := range pages {
		if pg.Data()[0] != byte(i+1) {
			t.Fatalf("page %d reads %#x after the stress, want %#x", i, pg.Data()[0], byte(i+1))
		}
	}
	if st := r.sf.Stats(); st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after the stress", st.Allocs, st.Frees)
	}
	if err := physcheck.Audit(r.m.Phys); err != nil {
		t.Fatal(err)
	}
	for _, pg := range pages {
		r.m.Phys.Free(pg)
	}
	if free := r.m.Phys.FreeFrames(); free != 512 {
		t.Fatalf("free frames = %d, want 512 — a tier move leaked or double-freed a frame", free)
	}
}
