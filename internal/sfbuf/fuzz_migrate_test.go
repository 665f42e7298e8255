package sfbuf

// Native fuzz target for reservations + defragmentation by migration.  A
// byte string decodes into a trace of raw frame churn, mapping traffic
// (singles and runs), wired contiguous holds, AllocContig attempts and
// forced migration passes over a small buddy pool — and the physcheck
// layer is the oracle, run after EVERY step: the structural free-list
// audit, the temporal reservation invariant, and (across each migration
// pass) the byte oracle over every page the trace owns.  Every live
// mapping is also re-read through the honest TLB after each migration, so
// an evacuation that leaves a stale translation dereferenceable fails as
// wrong bytes.
//
// The seed corpus lives in testdata/fuzz/FuzzMigrate; digits '0'-'7'
// decode to opcodes 0-7, so the short seeds are readable op lists.  The
// starvation seed (built by starvationSeed, also checked in) fills the
// pool, scatters frees to ~70% occupancy with zero intact spans, proves
// AllocContig starves, then migrates and re-allocates — the acceptance
// trace for defrag-by-migration, replayed deterministically by
// TestMigrateStarvationSeed.

import (
	"errors"
	"testing"

	"sfbuf/internal/vm"
	"sfbuf/internal/vm/physcheck"
)

const (
	fuzzMigFrames  = 512
	fuzzMigEntries = 16
)

// migPoolPage is one raw page the trace owns, with its model byte and the
// number of live mapping references the harness itself holds on it.
type migPoolPage struct {
	pg   *vm.Page
	val  byte
	refs int
}

// migTraceSummary reports what a trace exercised, for seed-replay tests
// that pin specific economies.
type migTraceSummary struct {
	contigFails, contigOks int
	stats                  MigrationStats
}

func runMigrateTrace(t *testing.T, data []byte) migTraceSummary {
	return runMigrateTraceTiered(t, data, 0)
}

// runMigrateTraceTiered is runMigrateTrace over an optionally tiered
// pool: fastPer > 0 splits the buddy frames with SetTierSplit, and every
// op-7 migration pass is followed by a tier-move pass over everything
// the trace owns — destination alternating with the op's argument — each
// under its own byte oracle and live-mapping re-read.  fastPer == 0 is
// byte-for-byte the untiered trace FuzzMigrate has always run.
func runMigrateTraceTiered(t *testing.T, data []byte, fastPer int) migTraceSummary {
	r := newMigrateRig(t, fuzzMigFrames, fuzzMigEntries,
		ShardedConfig{ReclaimBatch: 3, PerCPUFree: 2})
	if fastPer > 0 {
		r.m.Phys.SetTierSplit(fastPer)
	}
	ncpu := r.m.NumCPUs()
	check := physcheck.NewChecker(r.m.Phys)

	var pool []*migPoolPage
	type migMap struct {
		p   *migPoolPage
		b   *Buf
		kva uint64
		cpu int
	}
	var maps []migMap
	type migRunH struct {
		r     *Run
		items []*migPoolPage
	}
	var runsLive []migRunH
	var held [][]*vm.Page
	sum := migTraceSummary{}
	nextVal := byte(1)

	verifyAll := func(step int) {
		for _, m := range maps {
			got, err := r.pm.Translate(r.m.Ctx(m.cpu), m.kva, false)
			if err != nil {
				t.Fatalf("step %d: translate: %v", step, err)
			}
			if got.Data()[0] != m.p.val {
				t.Fatalf("step %d: mapping reads %#x, want %#x — stale translation survived migration",
					step, got.Data()[0], m.p.val)
			}
		}
		for _, rh := range runsLive {
			for j, p := range rh.items {
				got, err := r.pm.Translate(r.m.Ctx(0), rh.r.KVA(j), false)
				if err != nil {
					t.Fatalf("step %d: run translate: %v", step, err)
				}
				if got.Data()[0] != p.val {
					t.Fatalf("step %d: run slot %d reads %#x, want %#x",
						step, j, got.Data()[0], p.val)
				}
			}
		}
	}
	audit := func(step int) {
		if err := physcheck.Audit(r.m.Phys); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := check.Step(r.m.Phys); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := checkFrameTable(r.sf.c.(*shardedCache)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := int(data[i]%8), int(data[i+1])
		cpu := (arg >> 2) % ncpu
		switch op {
		case 0: // raw alloc burst: churn fodder and migration victims
			n := 1 + arg%8
			for j := 0; j < n; j++ {
				pg, err := r.m.Phys.Alloc()
				if err != nil {
					break // pool exhausted: the burst just ends
				}
				pg.Data()[0] = nextVal
				pool = append(pool, &migPoolPage{pg: pg, val: nextVal})
				nextVal++
				if nextVal == 0 {
					nextVal = 1
				}
			}
		case 1: // raw free: first unreferenced page at or after the pick
			if len(pool) == 0 {
				continue
			}
			pick := arg % len(pool)
			for j := 0; j < len(pool); j++ {
				k := (pick + j) % len(pool)
				if pool[k].refs == 0 {
					r.m.Phys.Free(pool[k].pg)
					pool = append(pool[:k], pool[k+1:]...)
					break
				}
			}
		case 2: // map a pool page and write a fresh byte through it
			if len(pool) == 0 {
				continue
			}
			p := pool[arg%len(pool)]
			b, err := r.sf.Alloc(r.m.Ctx(cpu), p.pg, NoWait)
			if errors.Is(err, ErrWouldBlock) {
				continue
			}
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			got, err := r.pm.Translate(r.m.Ctx(cpu), b.KVA(), true)
			if err != nil {
				t.Fatalf("write translate: %v", err)
			}
			v := byte(arg) | 1
			got.Data()[0] = v
			p.val = v
			p.refs++
			maps = append(maps, migMap{p: p, b: b, kva: b.KVA(), cpu: cpu})
		case 3: // verify and unmap
			if len(maps) == 0 {
				continue
			}
			pick := arg % len(maps)
			m := maps[pick]
			got, err := r.pm.Translate(r.m.Ctx(m.cpu), m.kva, false)
			if err != nil {
				t.Fatalf("translate: %v", err)
			}
			if got.Data()[0] != m.p.val {
				t.Fatalf("mapping reads %#x, want %#x before free", got.Data()[0], m.p.val)
			}
			r.sf.Free(r.m.Ctx(m.cpu), m.b)
			m.p.refs--
			maps = append(maps[:pick], maps[pick+1:]...)
		case 4: // run over consecutive pool entries (frames arbitrary)
			n := 2 + (arg>>4)%3
			if len(pool) < n {
				continue
			}
			start := arg % (len(pool) - n + 1)
			items := append([]*migPoolPage(nil), pool[start:start+n]...)
			pages := make([]*vm.Page, n)
			for j, p := range items {
				pages[j] = p.pg
			}
			rn, err := r.sf.AllocRun(r.m.Ctx(cpu), pages, NoWait)
			if errors.Is(err, ErrWouldBlock) || errors.Is(err, ErrBatchTooLarge) {
				continue
			}
			if err != nil {
				t.Fatalf("allocRun: %v", err)
			}
			for _, p := range items {
				p.refs++
			}
			runsLive = append(runsLive, migRunH{r: rn, items: items})
		case 5: // free a run
			if len(runsLive) == 0 {
				continue
			}
			pick := arg % len(runsLive)
			rh := runsLive[pick]
			for _, p := range rh.items {
				p.refs--
			}
			r.sf.FreeRun(r.m.Ctx(cpu), rh.r)
			runsLive = append(runsLive[:pick], runsLive[pick+1:]...)
		case 6: // wired contiguous hold, or release the oldest one
			if arg&1 == 0 && len(held) < 3 {
				pages, err := r.m.Phys.AllocContig(16, 16)
				if errors.Is(err, vm.ErrNoContig) || errors.Is(err, vm.ErrNoMemory) {
					sum.contigFails++
					continue
				}
				if err != nil {
					t.Fatalf("AllocContig: %v", err)
				}
				sum.contigOks++
				for _, pg := range pages {
					pg.Wire()
				}
				held = append(held, pages)
			} else if len(held) > 0 {
				for _, pg := range held[0] {
					pg.Unwire()
					r.m.Phys.Free(pg)
				}
				held = held[1:]
			}
		case 7: // migration pass, byte-oracle checked
			var owned []*vm.Page
			for _, p := range pool {
				owned = append(owned, p.pg)
			}
			for _, ext := range held {
				owned = append(owned, ext...)
			}
			oracle := physcheck.NewOracle(owned)
			r.mig.MigrateBlocks(r.m.Ctx(cpu), 1+arg%3)
			if err := oracle.Check(r.m.Phys); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
			verifyAll(i / 2)
			if fastPer > 0 {
				// Tier-move pass over the same ownership set.  The fast
				// tier is a fraction of the pool, so promoting everything
				// the trace owns exercises the destination-full early exit
				// as often as it succeeds — and demoting (odd args) frees
				// the boundary back up.
				tierOracle := physcheck.NewOracle(owned)
				r.mig.MoveToTier(r.m.Ctx(cpu), owned, arg%2, 0)
				if err := tierOracle.Check(r.m.Phys); err != nil {
					t.Fatalf("step %d (tier move): %v", i/2, err)
				}
				verifyAll(i / 2)
			}
		}
		audit(i / 2)
	}

	// Drain everything, then the ledger and the pool must balance.
	for _, m := range maps {
		r.sf.Free(r.m.Ctx(m.cpu), m.b)
	}
	for _, rh := range runsLive {
		r.sf.FreeRun(r.m.Ctx(0), rh.r)
	}
	for _, ext := range held {
		for _, pg := range ext {
			pg.Unwire()
			r.m.Phys.Free(pg)
		}
	}
	for _, p := range pool {
		r.m.Phys.Free(p.pg)
	}
	audit(len(data))
	if st := r.sf.Stats(); st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
	}
	if free := r.m.Phys.FreeFrames(); free != fuzzMigFrames {
		t.Fatalf("free frames = %d, want %d after drain — migration leaked or double-freed a frame",
			free, fuzzMigFrames)
	}
	sum.stats = r.mig.Stats()
	return sum
}

// starvationSeed builds the checked-in acceptance trace: fill the pool,
// scatter frees down to ~70% occupancy (no intact span anywhere), prove
// AllocContig starves, migrate, hold a recovered extent, release and
// re-verify.
func starvationSeed() []byte {
	var b []byte
	op := func(o, arg byte) { b = append(b, '0'+o, arg) }
	for i := 0; i < 64; i++ {
		op(0, 0xff) // burst-allocate 8 raw pages until the pool is full
	}
	// Mapping churn over the full pool: map, dirty, unmap.  The unmapped
	// entries stay cached inactive — some of their pages are freed raw by
	// the sweep below (stale entries at free frames, the evictStale path)
	// and some survive to be remapped in place by the migration passes.
	for i := 0; i < 6; i++ {
		op(2, byte(i*67+33)|1)
		op(3, 0x00)
	}
	// Band-sweep frees: seven consecutive frees then one survivor, over
	// three spans' worth of frames.  Leaves ~71% occupancy with a survivor
	// every eighth frame — no aligned order-4 block anywhere, the scatter
	// that defeats eager buddy coalescing.
	for k := 0; k < 21; k++ {
		for j := 0; j < 7; j++ {
			op(1, byte(64+k))
		}
	}
	op(6, 0xfe) // contiguous hold attempt: starves (recorded)
	op(7, 0x02) // migrate: evacuate the sparse spans' survivors
	op(7, 0x02)
	op(6, 0xfe) // hold a recovered extent: succeeds (recorded)
	op(7, 0x02) // one more pass around the wired hold
	op(6, 0x01) // release the oldest hold
	return b
}

func FuzzMigrate(f *testing.F) {
	f.Add([]byte("0a0b2a2b3a3b1a1b"))                 // churn, map, unmap, free
	f.Add([]byte("0\xff1a1b1c7a6b6a7b"))              // burst, scatter, migrate, contig hold
	f.Add([]byte("0d4a4b5a7c5b4c7a"))                 // runs parked across migrations
	f.Add([]byte("0\xff0\xff2a2b7a3a7b1a1b1c7c6a6b")) // mixed traffic with repeated passes
	f.Add([]byte("6a7a6a7a6b6b"))                     // wired holds fencing migration
	f.Add(starvationSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		runMigrateTrace(t, data)
	})
}

// TestMigrateStarvationSeed replays the checked-in starvation seed
// deterministically and pins its economy: the ~70%-occupancy scatter
// starves at least one AllocContig, migration then moves pages and
// coalesces spans, and a later AllocContig succeeds — the on-demand
// recovery story end to end, under every physcheck oracle.
func TestMigrateStarvationSeed(t *testing.T) {
	sum := runMigrateTrace(t, starvationSeed())
	if sum.contigFails == 0 {
		t.Fatal("the starvation trace never starved an AllocContig")
	}
	if sum.contigOks == 0 {
		t.Fatal("the starvation trace never recovered a contiguous extent after migration")
	}
	if sum.stats.PagesMoved == 0 || sum.stats.BlocksFreed == 0 {
		t.Fatalf("stats moved=%d freed=%d: migration did not do the recovery",
			sum.stats.PagesMoved, sum.stats.BlocksFreed)
	}
}
