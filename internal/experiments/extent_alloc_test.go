package experiments

import (
	"testing"

	"sfbuf/internal/sfbuf"
	"sfbuf/internal/vm"
)

// TestExtentPathAllocations guards the steady-state multi-page path on
// the adaptive kernel against Go heap allocation: the policy decision
// allocates nothing, and a run or batch cycle allocates only what the
// caller is handed and owns (the *Run, the returned []*Buf).  Recency
// tables, claimed tokens, the run's page copy, parked-window keys and
// shard groupings are all reused.
func TestExtentPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so pooled scratch reallocates")
	}
	k, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	alloc := func(n int) []*vm.Page {
		pages, err := k.M.Phys.AllocN(n)
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	stream := alloc(AdaptiveStreamExtents * AdaptiveStreamLen)
	fresh := alloc(4 * AdaptiveEntries)
	resident := alloc(AdaptiveChurnPages)
	streamExt := func(i int) []*vm.Page {
		x := i % AdaptiveStreamExtents
		return stream[x*AdaptiveStreamLen : (x+1)*AdaptiveStreamLen]
	}
	// Cold extents step through the fresh pool, so one repeats only after
	// far more parks than the run pool can keep revivable.
	freshExt := func(i int) []*vm.Page {
		at := (i * AdaptiveChurnLen) % (len(fresh) - AdaptiveChurnLen + 1)
		return fresh[at : at+AdaptiveChurnLen]
	}
	residentExt := func(i int) []*vm.Page {
		at := (i * 5) % (len(resident) - AdaptiveChurnLen + 1)
		return resident[at : at+AdaptiveChurnLen]
	}
	runCycle := func(ext []*vm.Page) {
		rn, err := k.Map.AllocRun(ctx, ext, 0)
		if err != nil {
			t.Fatal(err)
		}
		k.Map.FreeRun(ctx, rn)
	}
	batchCycle := func(ext []*vm.Page) {
		bufs, err := k.Map.AllocBatch(ctx, ext, 0)
		if err != nil {
			t.Fatal(err)
		}
		k.Map.FreeBatch(ctx, bufs)
	}
	windows := func() sfbuf.RunWindowStats {
		return k.Map.(interface{ RunWindowStats() sfbuf.RunWindowStats }).RunWindowStats()
	}
	const runs = 500
	check := func(name string, limit float64, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(runs, f); n > limit {
			t.Errorf("%s: %v allocs per op, want at most %v", name, n, limit)
		}
	}

	cons := k.Consumer("alloc-guard")
	extents := []func(int) []*vm.Page{streamExt, freshExt, residentExt}
	i := 0
	useRuns := func() {
		i++
		cons.UseRuns(ctx, extents[i%len(extents)](i))
	}
	for w := 0; w < 4*runs; w++ { // every extent seen once, EWMAs settled
		useRuns()
	}
	check("UseRuns", 0, useRuns)

	for w := 0; w < 2*AdaptiveStreamExtents; w++ {
		runCycle(streamExt(w))
	}
	before := windows()
	check("revived AllocRun/FreeRun", 1, func() {
		i++
		runCycle(streamExt(i))
	})
	if got := windows().Revives - before.Revives; got < runs {
		t.Errorf("%d revives over %d revived cycles", got, runs)
	}

	for w := 0; w < len(fresh)/AdaptiveChurnLen; w++ {
		runCycle(freshExt(w))
	}
	before = windows()
	check("cold AllocRun/FreeRun with laundering", 1, func() {
		i++
		runCycle(freshExt(i))
	})
	if after := windows(); after.Revives != before.Revives || after.Launders == before.Launders {
		t.Errorf("cold cycles revived %d windows and laundered %d rounds, want 0 and some",
			after.Revives-before.Revives, after.Launders-before.Launders)
	}

	for w := 0; w < 2*len(resident); w++ {
		batchCycle(residentExt(w))
	}
	check("AllocBatch/FreeBatch", 1, func() {
		i++
		batchCycle(residentExt(i))
	})
}
