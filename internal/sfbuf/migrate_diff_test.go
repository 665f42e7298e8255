package sfbuf

// Differential harness for defragmentation by migration.  The engines
// replay the same trace over BUDDY physical pools, with two opcode kinds
// the base harness leaves out: raw physical churn (kind 10) fragments the
// pool underneath the mapping layer, and forced defrag passes (kind 9)
// evacuate nearly-free spans on whichever engines can migrate.  Only the
// sharded engine has a Migrator; the global-lock cache and the original
// kernel replay kind 9 as a no-op — so the assertion that all engines
// (and the 1- vs 2-socket builds) end byte-identical is exactly the
// contract the Migrator must honor: migration may move frames, remap
// inactive entries and rewrite parked windows, but it may never change a
// single observable byte or leave a stale translation dereferenceable.

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

const (
	diffBuddyFrames = 1024
	diffMigSpan     = 64 // contiguity target for the differential traces
)

// newDiffEnginesBuddy is newDiffEnginesTopo over buddy physical pools: the
// machines get NUMA-homed buddy frame allocators with a reservation at the
// trace's span order, and the engines that can migrate (the sharded i386
// cache) get a Migrator for kind-9 passes.  sockets <= 1 builds the flat
// single-socket pool.
func newDiffEnginesBuddy(t *testing.T, plat arch.Platform, sockets int) []*diffEngine {
	t.Helper()
	if sockets < 1 {
		sockets = 1
	}
	spanOrder := 0
	for 1<<spanOrder < diffMigSpan {
		spanOrder++
	}
	build := func(name string, mk func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error)) *diffEngine {
		m := smp.NewMachineWithPhys(plat, vm.NewPhysMemNUMA(diffBuddyFrames, true, sockets))
		m.Phys.SetReservation(spanOrder, 2)
		pm := pmap.New(m)
		arena := kva.NewArena(pmap.KVABaseI386, pmap.KVASizeI386)
		if sockets > 1 {
			m.SetTopology(sockets)
		}
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
	shardCfg := ShardedConfig{ReclaimBatch: 8, PerCPUFree: 4, Homed: sockets > 1}
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

// genTraceMigrate builds a revive-biased mapping trace interleaved with
// raw physical churn (kind 10) and periodic forced defrag passes
// (kind 9).  The churn bursts and scattered frees are what defeats the
// buddy allocator's eager coalescing; the defrag passes then have real
// evacuation work, including this trace's own inactive entries and parked
// windows.
func genTraceMigrate(seed int64, ncpu int) []diffOp {
	base := genTraceBias(seed, ncpu, 25)
	rng := rand.New(rand.NewSource(seed * 7919))
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
		if i%25 == 24 {
			out = append(out, diffOp{kind: 9, count: 2, cpu: rng.Intn(ncpu)})
		}
	}
	return out
}

// TestDifferentialMigration replays migration traces against all three
// engines on buddy pools, flat and 2-socket, and requires byte-identical
// observables everywhere — with the structural free-list audit run on
// every pool afterwards.  The sharded engine actually migrates (asserted);
// the others prove the moves were invisible.
func TestDifferentialMigration(t *testing.T) {
	flatPlat := arch.XeonMPHTT()
	numaPlat := arch.XeonNUMA(2, 2)
	if numaPlat.NumCPUs != flatPlat.NumCPUs {
		t.Fatalf("platform CPU counts diverge (%d vs %d): traces are not comparable",
			numaPlat.NumCPUs, flatPlat.NumCPUs)
	}
	var movedTotal, freedTotal uint64
	for seed := int64(61); seed <= 63; seed++ {
		ops := genTraceMigrate(seed, flatPlat.NumCPUs)
		var ref [diffPages]byte
		for i, e := range newDiffEnginesBuddy(t, flatPlat, 1) {
			got := replayTrace(t, e, ops)
			if err := physcheck.Audit(e.m.Phys); err != nil {
				t.Fatalf("seed %d: %s after replay: %v", seed, e.name, err)
			}
			if i == 0 {
				ref = got
				st := e.mig.Stats()
				movedTotal += st.PagesMoved
				freedTotal += st.BlocksFreed
				continue
			}
			if got != ref {
				t.Fatalf("seed %d: engine %s final bytes diverge from sharded under migration", seed, e.name)
			}
		}
		for _, e := range newDiffEnginesBuddy(t, numaPlat, 2) {
			got := replayTrace(t, e, ops)
			if err := physcheck.Audit(e.m.Phys); err != nil {
				t.Fatalf("seed %d: 2-socket %s after replay: %v", seed, e.name, err)
			}
			if got != ref {
				t.Fatalf("seed %d: 2-socket %s diverges from the flat replay under migration", seed, e.name)
			}
		}
	}
	if movedTotal == 0 {
		t.Fatal("the migration traces never moved a page — the harness is not exercising defrag")
	}
	if freedTotal == 0 {
		t.Fatal("the migration traces never coalesced a span — churn/defrag balance is off")
	}
}
