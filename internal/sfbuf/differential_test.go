package sfbuf

// Cross-engine differential harness.  The three engines — the sharded
// per-CPU cache, the paper's global-lock cache, and the original kernel —
// implement the same Table-1 + vectored contract on very different
// machinery.  This harness replays identical seeded operation traces
// (single and batched allocs, shared and private mappings, frees in
// arbitrary order, writes through live mappings, multi-CPU placement)
// against all of them on every evaluation platform, and checks the one
// observable that matters: every read through a live Buf's kernel virtual
// address, performed through the honest TLB model, must see the mapped
// frame's current bytes.  An engine that leaks a stale translation, maps
// the wrong frame, or unmaps too early diverges from the shared model —
// and therefore from the other engines — immediately.

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kva"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// diffOp is one step of a trace.  Traces are generated once per seed and
// replayed verbatim against every engine.
type diffOp struct {
	kind    int // 0 alloc, 1 allocBatch, 2 free, 3 freeBatch, 4 write, 5 verify, 6 allocRun, 7 freeRun, 8 launder
	page    int // first page index (alloc kinds)
	count   int // batch/run length
	cpu     int
	private bool
	pick    int  // which live handle/batch/run (free/write/verify kinds)
	val     byte // written value
}

const (
	diffPages   = 96
	diffEntries = 128 // > diffMaxLive: traces never exhaust any engine
	diffMaxLive = 64
	diffOps     = 500
)

// genTrace builds a deterministic trace for one platform.  Live-set
// bookkeeping here mirrors the replay exactly, so free/write picks always
// resolve to the same logical handle on every engine.
func genTrace(seed int64, ncpu int) []diffOp {
	return genTraceBias(seed, ncpu, 12)
}

// genTraceBias is genTrace with a tunable revive bias: the percentage of
// steps that re-allocate a RECENTLY FREED run extent verbatim — the
// page-set window cache's hit pattern (alloc-run / free-run / re-alloc
// same extent), which on the sharded engine resurrects parked windows
// while the other engines must observe identical mapping semantics
// through their cold paths.
func genTraceBias(seed int64, ncpu, reviveBias int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []diffOp
	liveSingles := 0
	type extent struct{ start, count int }
	var batchSizes []int    // batches tracked as units
	var runExtents []extent // live runs with their extents
	var freed []extent      // recently freed run extents, oldest first
	for len(ops) < diffOps {
		live := liveSingles
		for _, n := range batchSizes {
			live += n
		}
		for _, e := range runExtents {
			live += e.count
		}
		if len(freed) > 0 && rng.Intn(100) < reviveBias {
			// Re-allocate a recently freed extent verbatim.
			e := freed[rng.Intn(len(freed))]
			if live+e.count < diffMaxLive {
				ops = append(ops, diffOp{kind: 6, page: e.start, count: e.count,
					cpu: rng.Intn(ncpu), private: rng.Intn(3) == 0})
				runExtents = append(runExtents, e)
				continue
			}
		}
		r := rng.Intn(100)
		switch {
		case r < 25 && live < diffMaxLive:
			ops = append(ops, diffOp{kind: 0, page: rng.Intn(diffPages),
				cpu: rng.Intn(ncpu), private: rng.Intn(3) == 0})
			liveSingles++
		case r < 42 && live+8 < diffMaxLive:
			n := 1 + rng.Intn(8)
			start := rng.Intn(diffPages - n) // no wraparound: distinct pages
			ops = append(ops, diffOp{kind: 1, page: start, count: n,
				cpu: rng.Intn(ncpu), private: rng.Intn(3) == 0})
			batchSizes = append(batchSizes, n)
		case r < 55 && live+8 < diffMaxLive:
			n := 1 + rng.Intn(8)
			start := rng.Intn(diffPages - n)
			ops = append(ops, diffOp{kind: 6, page: start, count: n,
				cpu: rng.Intn(ncpu), private: rng.Intn(3) == 0})
			runExtents = append(runExtents, extent{start: start, count: n})
		case r < 68 && liveSingles > 0:
			ops = append(ops, diffOp{kind: 2, pick: rng.Intn(liveSingles)})
			liveSingles--
		case r < 78 && len(batchSizes) > 0:
			pick := rng.Intn(len(batchSizes))
			ops = append(ops, diffOp{kind: 3, pick: pick})
			batchSizes = append(batchSizes[:pick], batchSizes[pick+1:]...)
		case r < 86 && len(runExtents) > 0:
			pick := rng.Intn(len(runExtents))
			ops = append(ops, diffOp{kind: 7, pick: pick})
			// Remember the freed extent for the revive mix, bounded to
			// the depth a parked window could plausibly survive.
			freed = append(freed, runExtents[pick])
			if len(freed) > 8 {
				freed = freed[1:]
			}
			runExtents = append(runExtents[:pick], runExtents[pick+1:]...)
		case r < 93 && live > 0:
			ops = append(ops, diffOp{kind: 4, pick: rng.Intn(live),
				val: byte(rng.Intn(256)), cpu: rng.Intn(ncpu)})
		case live > 0:
			ops = append(ops, diffOp{kind: 5, pick: rng.Intn(live),
				cpu: rng.Intn(ncpu)})
		}
	}
	return ops
}

// diffEngine is one engine instance with its own machine, pages and
// address space.
type diffEngine struct {
	name  string
	m     *smp.Machine
	pm    *pmap.Pmap
	sf    Mapper
	pages []*vm.Page
}

// diffHandle is one live mapping during replay.  Run members have no Buf
// of their own — only their address within the run, which differs between
// a window-backed run and a scattered fallback, but resolves per engine.
type diffHandle struct {
	b       *Buf
	kva     uint64
	page    int
	cpu     int
	private bool
}

// diffRun is one live run and its member handles.
type diffRun struct {
	r  *Run
	hs []diffHandle
}

func newDiffEngines(t *testing.T, plat arch.Platform) []*diffEngine {
	return newDiffEnginesTopo(t, plat, 1)
}

// newDiffEnginesTopo is newDiffEngines on a sockets-package machine: the
// physical pool is homed per socket (vm.NewPhysMemNUMA), the machine gets
// the topology and the sharded engine runs socket-homed.
// sockets <= 1 is byte-for-byte the flat build.
func newDiffEnginesTopo(t *testing.T, plat arch.Platform, sockets int) []*diffEngine {
	t.Helper()
	build := func(name string, mk func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error)) *diffEngine {
		m := smp.NewMachineWithPhys(plat, vm.NewPhysMemNUMA(diffPages+600, true, sockets))
		pm := pmap.New(m)
		base, size := uint64(pmap.KVABaseI386), uint64(pmap.KVASizeI386)
		if plat.Arch != arch.I386 {
			base, size = pmap.KVABaseAMD64, pmap.KVASizeAMD64
		}
		arena := kva.NewArena(base, size)
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
		return &diffEngine{name: name, m: m, pm: pm, sf: sf, pages: pages}
	}
	shardCfg := ShardedConfig{ReclaimBatch: 8, PerCPUFree: 4, Homed: sockets > 1}
	engines := []*diffEngine{
		build("sharded", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			if plat.Arch == arch.AMD64 {
				return NewAMD64(m, pm), nil
			}
			return NewI386Sharded(m, pm, arena, diffEntries, shardCfg)
		}),
		build("global", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			if plat.Arch == arch.AMD64 {
				return NewAMD64(m, pm), nil
			}
			return NewI386(m, pm, arena, diffEntries)
		}),
		build("original", func(m *smp.Machine, pm *pmap.Pmap, arena *kva.Arena) (Mapper, error) {
			return NewOriginal(m, pm, arena), nil
		}),
	}
	return engines
}

// replayTrace runs a trace against one engine, checking every read
// against the shared byte model.  It returns the per-page bytes at trace
// end so the caller can compare engines against each other directly.
func replayTrace(t *testing.T, e *diffEngine, ops []diffOp) [diffPages]byte {
	t.Helper()
	var model [diffPages]byte
	for i := range model {
		model[i] = byte(i)
	}
	var singles []diffHandle
	var batches [][]diffHandle
	var runs []diffRun

	// liveAt resolves a flat pick over singles, then batch members, then
	// run members, in the same order the generator counted them.
	liveAt := func(pick int) *diffHandle {
		if pick < len(singles) {
			return &singles[pick]
		}
		pick -= len(singles)
		for bi := range batches {
			if pick < len(batches[bi]) {
				return &batches[bi][pick]
			}
			pick -= len(batches[bi])
		}
		for ri := range runs {
			if pick < len(runs[ri].hs) {
				return &runs[ri].hs[pick]
			}
			pick -= len(runs[ri].hs)
		}
		return nil
	}
	// readCPU picks a CPU allowed to dereference the handle: private
	// mappings belong to their allocating CPU, shared ones to anyone.
	readCPU := func(h *diffHandle, want int) int {
		if h.private {
			return h.cpu
		}
		return want
	}

	verify := func(step int, h *diffHandle, cpu int) {
		ctx := e.m.Ctx(cpu)
		got, err := e.pm.Translate(ctx, h.kva, false)
		if err != nil {
			t.Fatalf("%s step %d: translate page %d: %v", e.name, step, h.page, err)
		}
		if got.Data()[0] != model[h.page] {
			t.Fatalf("%s step %d: page %d reads %#x, want %#x — stale or misrouted mapping",
				e.name, step, h.page, got.Data()[0], model[h.page])
		}
	}

	for step, op := range ops {
		switch op.kind {
		case 0:
			flags := Flags(0)
			if op.private {
				flags = Private
			}
			b, err := e.sf.Alloc(e.m.Ctx(op.cpu), e.pages[op.page], flags)
			if err != nil {
				t.Fatalf("%s step %d: alloc page %d: %v", e.name, step, op.page, err)
			}
			if b.Page() != e.pages[op.page] {
				t.Fatalf("%s step %d: alloc returned wrong page", e.name, step)
			}
			h := diffHandle{b: b, kva: b.KVA(), page: op.page, cpu: op.cpu, private: op.private}
			singles = append(singles, h)
			verify(step, &h, op.cpu)
		case 1:
			flags := Flags(0)
			if op.private {
				flags = Private
			}
			run := e.pages[op.page : op.page+op.count]
			bufs, err := e.sf.AllocBatch(e.m.Ctx(op.cpu), run, flags)
			if err != nil {
				t.Fatalf("%s step %d: allocBatch [%d,%d): %v",
					e.name, step, op.page, op.page+op.count, err)
			}
			hs := make([]diffHandle, len(bufs))
			for j, b := range bufs {
				if b.Page() != run[j] {
					t.Fatalf("%s step %d: batch buf %d maps wrong page", e.name, step, j)
				}
				hs[j] = diffHandle{b: b, kva: b.KVA(), page: op.page + j, cpu: op.cpu, private: op.private}
				verify(step, &hs[j], op.cpu)
			}
			batches = append(batches, hs)
		case 2:
			h := singles[op.pick]
			verify(step, &h, readCPU(&h, h.cpu))
			e.sf.Free(e.m.Ctx(h.cpu), h.b)
			singles = append(singles[:op.pick], singles[op.pick+1:]...)
		case 3:
			hs := batches[op.pick]
			bufs := make([]*Buf, len(hs))
			for j := range hs {
				verify(step, &hs[j], hs[j].cpu)
				bufs[j] = hs[j].b
			}
			e.sf.FreeBatch(e.m.Ctx(hs[0].cpu), bufs)
			batches = append(batches[:op.pick], batches[op.pick+1:]...)
		case 4:
			h := liveAt(op.pick)
			if h == nil {
				continue
			}
			cpu := readCPU(h, op.cpu)
			ctx := e.m.Ctx(cpu)
			got, err := e.pm.Translate(ctx, h.kva, true)
			if err != nil {
				t.Fatalf("%s step %d: write translate: %v", e.name, step, err)
			}
			got.Data()[0] = op.val
			model[h.page] = op.val
			verify(step, h, cpu)
		case 5:
			h := liveAt(op.pick)
			if h == nil {
				continue
			}
			verify(step, h, readCPU(h, op.cpu))
		case 6:
			flags := Flags(0)
			if op.private {
				flags = Private
			}
			pageRun := e.pages[op.page : op.page+op.count]
			r, err := e.sf.AllocRun(e.m.Ctx(op.cpu), pageRun, flags)
			if err != nil {
				t.Fatalf("%s step %d: allocRun [%d,%d): %v",
					e.name, step, op.page, op.page+op.count, err)
			}
			if r.Len() != op.count {
				t.Fatalf("%s step %d: run length %d, want %d", e.name, step, r.Len(), op.count)
			}
			hs := make([]diffHandle, op.count)
			for j := 0; j < op.count; j++ {
				hs[j] = diffHandle{kva: r.KVA(j), page: op.page + j, cpu: op.cpu, private: op.private}
				verify(step, &hs[j], op.cpu)
			}
			runs = append(runs, diffRun{r: r, hs: hs})
		case 7:
			dr := runs[op.pick]
			for j := range dr.hs {
				verify(step, &dr.hs[j], dr.hs[j].cpu)
			}
			e.sf.FreeRun(e.m.Ctx(dr.hs[0].cpu), dr.r)
			runs = append(runs[:op.pick], runs[op.pick+1:]...)
		case 8:
			// Forced launder: the sharded engine tears down every parked
			// run window mid-trace, so later repeats of those extents
			// install cold into recycled windows.  Engines without a run
			// pool have nothing to launder.  Live mappings must read
			// true straight through it.
			if s, ok := e.sf.(*I386); ok {
				s.LaunderRunWindows(e.m.Ctx(op.cpu))
			}
		}
	}

	// Drain: every surviving mapping must still read true, then release
	// everything and check the ledger balances.
	for i := range singles {
		verify(len(ops), &singles[i], singles[i].cpu)
		e.sf.Free(e.m.Ctx(singles[i].cpu), singles[i].b)
	}
	for _, hs := range batches {
		bufs := make([]*Buf, len(hs))
		for j := range hs {
			verify(len(ops), &hs[j], hs[j].cpu)
			bufs[j] = hs[j].b
		}
		e.sf.FreeBatch(e.m.Ctx(hs[0].cpu), bufs)
	}
	for _, dr := range runs {
		for j := range dr.hs {
			verify(len(ops), &dr.hs[j], dr.hs[j].cpu)
		}
		e.sf.FreeRun(e.m.Ctx(dr.hs[0].cpu), dr.r)
	}
	if st := e.sf.Stats(); st.Allocs != st.Frees {
		t.Fatalf("%s: allocs %d != frees %d after drain", e.name, st.Allocs, st.Frees)
	}

	// Final ground truth read outside any ephemeral mapping.
	var final [diffPages]byte
	for i, pg := range e.pages {
		final[i] = pg.Data()[0]
		if final[i] != model[i] {
			t.Fatalf("%s: page %d backing store %#x, model %#x — a write went to the wrong frame",
				e.name, i, final[i], model[i])
		}
	}
	return final
}

// TestDifferentialEngines replays seeded traces against all three engines
// on all five evaluation platforms and requires identical observable
// mapping semantics everywhere.
func TestDifferentialEngines(t *testing.T) {
	for _, plat := range arch.Evaluation() {
		plat := plat
		t.Run(plat.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				ops := genTrace(seed, plat.NumCPUs)
				engines := newDiffEngines(t, plat)
				var ref [diffPages]byte
				for i, e := range engines {
					got := replayTrace(t, e, ops)
					if i == 0 {
						ref = got
						continue
					}
					if got != ref {
						t.Fatalf("seed %d: engine %s final bytes diverge from %s",
							seed, e.name, engines[0].name)
					}
				}
			}
		})
	}
}

// TestDifferentialReviveHeavy replays traces biased hard toward the
// alloc-run / free-run / re-alloc-same-extent pattern: the sharded
// engine serves the repeats from its page-set window cache (the test
// asserts revives actually fired) while the global-lock cache and the
// original kernel take their cold paths — and all three must agree on
// every observable byte, proving a revived window is semantically
// indistinguishable from a fresh install.
func TestDifferentialReviveHeavy(t *testing.T) {
	plat := arch.XeonMPHTT()
	for seed := int64(21); seed <= 23; seed++ {
		ops := genTraceBias(seed, plat.NumCPUs, 35)
		engines := newDiffEngines(t, plat)
		var ref [diffPages]byte
		for i, e := range engines {
			got := replayTrace(t, e, ops)
			if i == 0 {
				ref = got
				if st := e.sf.Stats(); st.RunRevives == 0 {
					t.Errorf("seed %d: the revive-heavy trace never revived a window on %s", seed, e.name)
				}
				continue
			}
			if got != ref {
				t.Fatalf("seed %d: engine %s final bytes diverge from %s",
					seed, e.name, engines[0].name)
			}
		}
	}
}

// genTraceACKClocked builds a trace shaped like the serving path's
// ACK-clocked send pipeline: windows (runs) are allocated ahead of
// transmission and freed OLDEST-FIRST as cumulative acknowledgments
// cover them, with the pipeline depth bounded — allocation and FIFO
// release continuously interleave, instead of the uniform-random free
// order of genTrace.  A slice of steps re-allocates the extent that was
// just acknowledged (the next request for the same popular document),
// and writes land through live mappings mid-pipeline the way checksum
// passes touch in-flight windows.
func genTraceACKClocked(seed int64, ncpu int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []diffOp
	liveSingles := 0
	type extent struct{ start, count int }
	var runExtents []extent // the in-flight FIFO, oldest first
	var freed []extent      // acknowledged extents, for the re-request mix
	const pipeDepth = 6     // windows in flight per pseudo-connection
	live := func() int {
		n := liveSingles
		for _, e := range runExtents {
			n += e.count
		}
		return n
	}
	for len(ops) < diffOps {
		r := rng.Intn(100)
		switch {
		case r < 40 && len(runExtents) < pipeDepth && live()+8 < diffMaxLive:
			// Stage the next window.  A quarter of the time it is a
			// re-request of an acknowledged extent, hitting the page-set
			// window cache on the sharded engine.
			var e extent
			if len(freed) > 0 && rng.Intn(4) == 0 {
				e = freed[rng.Intn(len(freed))]
			} else {
				e.count = 2 + rng.Intn(7)
				e.start = rng.Intn(diffPages - e.count)
			}
			ops = append(ops, diffOp{kind: 6, page: e.start, count: e.count,
				cpu: rng.Intn(ncpu), private: rng.Intn(5) == 0})
			runExtents = append(runExtents, e)
		case r < 70 && len(runExtents) > 0:
			// Cumulative ACK: the OLDEST window is always the one released.
			ops = append(ops, diffOp{kind: 7, pick: 0})
			freed = append(freed, runExtents[0])
			if len(freed) > 8 {
				freed = freed[1:]
			}
			runExtents = runExtents[1:]
		case r < 78 && live() < diffMaxLive:
			// Control-plane singles (headers, metadata) around the stream.
			ops = append(ops, diffOp{kind: 0, page: rng.Intn(diffPages),
				cpu: rng.Intn(ncpu), private: rng.Intn(3) == 0})
			liveSingles++
		case r < 84 && liveSingles > 0:
			ops = append(ops, diffOp{kind: 2, pick: rng.Intn(liveSingles)})
			liveSingles--
		case r < 93 && live() > 0:
			// Checksum-style write through an in-flight mapping.
			ops = append(ops, diffOp{kind: 4, pick: rng.Intn(live()),
				val: byte(rng.Intn(256)), cpu: rng.Intn(ncpu)})
		case live() > 0:
			ops = append(ops, diffOp{kind: 5, pick: rng.Intn(live()),
				cpu: rng.Intn(ncpu)})
		}
	}
	return ops
}

// TestDifferentialACKClocked replays the ACK-clocked serving trace —
// FIFO window release interleaved with look-ahead allocation, plus
// same-extent re-requests — against all three engines.  The ordering is
// exactly what the virtual-internet serve loop generates, and it is the
// ordering that exposes release-order bugs (a window freed while a newer
// one is still installing) that uniform-random frees rarely line up.
func TestDifferentialACKClocked(t *testing.T) {
	plat := arch.XeonMPHTT()
	for seed := int64(31); seed <= 34; seed++ {
		ops := genTraceACKClocked(seed, plat.NumCPUs)
		engines := newDiffEngines(t, plat)
		var ref [diffPages]byte
		for i, e := range engines {
			got := replayTrace(t, e, ops)
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Fatalf("seed %d: engine %s final bytes diverge from %s",
					seed, e.name, engines[0].name)
			}
		}
	}
}

// insertLaunders deterministically interleaves forced launders (kind 8)
// into a trace: one after every `every` real operations, rotating the CPU
// that runs it.  Launders touch no live-set bookkeeping, so the
// generator's pick accounting stays valid.
func insertLaunders(ops []diffOp, every, ncpu int) []diffOp {
	out := make([]diffOp, 0, len(ops)+len(ops)/every)
	for i, op := range ops {
		out = append(out, op)
		if (i+1)%every == 0 {
			out = append(out, diffOp{kind: 8, cpu: (i / every) % ncpu})
		}
	}
	return out
}

// TestDifferentialMidTraceLaunder replays revive-biased traces with
// forced launders interleaved, so the sharded engine's run pool tears
// parked windows down from under the revive-heavy trace and recycles
// them for other extents.  Laundering must never change a single
// observable byte: the trace must read exactly like the same trace
// replayed on the engines with no run pool.
func TestDifferentialMidTraceLaunder(t *testing.T) {
	plat := arch.XeonMPHTT()
	for seed := int64(41); seed <= 43; seed++ {
		ops := insertLaunders(genTraceBias(seed, plat.NumCPUs, 35), 13, plat.NumCPUs)
		engines := newDiffEngines(t, plat)
		var ref [diffPages]byte
		for i, e := range engines {
			got := replayTrace(t, e, ops)
			if i == 0 {
				ref = got
				if ws := e.sf.(*I386).RunWindowStats(); ws.Launders == 0 {
					t.Errorf("seed %d: no launder round ran on %s — the trace is not exercising mid-trace laundering", seed, e.name)
				}
				continue
			}
			if got != ref {
				t.Fatalf("seed %d: engine %s final bytes diverge from %s",
					seed, e.name, engines[0].name)
			}
		}
	}
}

// TestDifferentialVectoredForcedLoop additionally replays a batch-heavy
// trace against the global-lock cache directly through its loop fallback,
// pinning the claim that batched and per-page requests are
// indistinguishable to it.
func TestDifferentialVectoredForcedLoop(t *testing.T) {
	for seed := int64(7); seed <= 9; seed++ {
		plat := arch.XeonMPHTT()
		ops := genTrace(seed, plat.NumCPUs)
		engines := newDiffEngines(t, plat)
		var ref [diffPages]byte
		for i, e := range engines {
			got := replayTrace(t, e, ops)
			if i == 0 {
				ref = got
			} else if got != ref {
				t.Fatalf("seed %d: %s diverged", seed, e.name)
			}
		}
	}
}

// TestDifferentialTopology replays seeded traces across socket
// topologies.  At Sockets=1 the topology-aware build must be
// byte-identical to the flat harness — the homing machinery's existence
// alone may not perturb a single observable.  At Sockets=2 all three
// engines run on a 2-package machine (the sharded cache socket-homed,
// the others merely topology-charged) and must agree with each other AND
// with the flat replay: cross-package cost asymmetry changes cycle
// totals, never mapping semantics.
func TestDifferentialTopology(t *testing.T) {
	flatPlat := arch.XeonMPHTT()
	numaPlat := arch.XeonNUMA(2, 2)
	if numaPlat.NumCPUs != flatPlat.NumCPUs {
		t.Fatalf("platform CPU counts diverge (%d vs %d): traces are not comparable",
			numaPlat.NumCPUs, flatPlat.NumCPUs)
	}
	for seed := int64(51); seed <= 53; seed++ {
		ops := genTrace(seed, flatPlat.NumCPUs)

		var ref [diffPages]byte
		for i, e := range newDiffEngines(t, flatPlat) {
			got := replayTrace(t, e, ops)
			if i == 0 {
				ref = got
			} else if got != ref {
				t.Fatalf("seed %d: flat engine %s diverged", seed, e.name)
			}
		}
		for _, e := range newDiffEnginesTopo(t, flatPlat, 1) {
			if got := replayTrace(t, e, ops); got != ref {
				t.Fatalf("seed %d: Sockets=1 build of %s diverges from the flat harness", seed, e.name)
			}
		}
		for _, e := range newDiffEnginesTopo(t, numaPlat, 2) {
			if got := replayTrace(t, e, ops); got != ref {
				t.Fatalf("seed %d: 2-socket %s diverges from the flat replay", seed, e.name)
			}
		}
	}
}
