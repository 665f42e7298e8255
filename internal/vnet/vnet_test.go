package vnet

import (
	"sort"
	"testing"
)

// runSchedule drives a fixed two-way packet exchange and returns the
// trace hash plus delivery counters.
func runSchedule(seed uint64) (uint64, Stats, []Packet) {
	n := New(seed)
	var got []Packet
	var back *Link
	fwd := n.NewLink(1000, 5000, func(p Packet) {
		got = append(got, p)
		back.Send(Packet{Flow: p.Flow, Ack: p.Seq + int64(p.Len), Win: 65536, Flags: FlagAck})
	})
	fwd.LossPct = 10
	fwd.ReorderPct = 20
	back = n.NewLink(1000, 5000, func(p Packet) {
		got = append(got, p)
	})
	back.LossPct = 5
	for i := 0; i < 200; i++ {
		p := Packet{Flow: i % 7, Seq: int64(i) * 1460, Len: 1460}
		n.After(int64(i)*100, func() { fwd.Send(p) })
	}
	n.Run()
	return n.TraceHash(), n.Stats(), got
}

// TestDeterministicSchedule is the determinism suite's core claim: the
// same seed replays a byte-identical packet schedule — same hash, same
// counters, same delivery sequence.
func TestDeterministicSchedule(t *testing.T) {
	h1, s1, got1 := runSchedule(42)
	h2, s2, got2 := runSchedule(42)
	if h1 != h2 {
		t.Fatalf("trace hash diverged across identical runs: %#x != %#x", h1, h2)
	}
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v != %+v", s1, s2)
	}
	if len(got1) != len(got2) {
		t.Fatalf("delivery count diverged: %d != %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery %d diverged: %+v != %+v", i, got1[i], got2[i])
		}
	}
	if h3, _, _ := runSchedule(43); h3 == h1 {
		t.Fatalf("different seeds produced the same trace hash %#x", h1)
	}
}

// TestLossAndReorderRates checks the link model's knobs actually bite at
// roughly the configured rates.
func TestLossAndReorderRates(t *testing.T) {
	n := New(7)
	delivered := 0
	l := n.NewLink(100, 200, func(Packet) { delivered++ })
	l.LossPct = 25
	l.ReorderPct = 10
	const sent = 10000
	for i := 0; i < sent; i++ {
		l.Send(Packet{Seq: int64(i)})
	}
	n.Run()
	st := n.Stats()
	if st.Sent != sent || st.Delivered != uint64(delivered) {
		t.Fatalf("counter mismatch: %+v vs delivered %d", st, delivered)
	}
	lossRate := float64(st.Dropped) / float64(sent)
	if lossRate < 0.20 || lossRate > 0.30 {
		t.Fatalf("loss rate %.3f far from configured 0.25", lossRate)
	}
	reorderRate := float64(st.Reordered) / float64(st.Sent-st.Dropped)
	if reorderRate < 0.06 || reorderRate > 0.14 {
		t.Fatalf("reorder rate %.3f far from configured 0.10", reorderRate)
	}
}

// TestEventOrdering checks ties fire in schedule order and the clock
// never runs backwards.
func TestEventOrdering(t *testing.T) {
	n := New(1)
	var order []int
	n.After(50, func() { order = append(order, 2) })
	n.After(10, func() { order = append(order, 0) })
	n.After(50, func() { order = append(order, 3) })
	n.After(10, func() {
		order = append(order, 1)
		if n.Now() != 10 {
			t.Errorf("clock %d inside t=10 event", n.Now())
		}
		// Nested zero-delay events fire before later-scheduled times.
		n.After(0, func() { order = append(order, 10) })
	})
	n.Run()
	want := []int{0, 1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestRunLimit bounds a self-rescheduling storm.
func TestRunLimit(t *testing.T) {
	n := New(3)
	var tick func()
	tick = func() { n.After(10, tick) }
	n.After(0, tick)
	if fired := n.RunLimit(100); fired != 100 {
		t.Fatalf("RunLimit fired %d, want 100", fired)
	}
	if n.Pending() == 0 {
		t.Fatal("storm should still be pending after the limit")
	}
}

// TestRandRanges sanity-checks the generator helpers.
func TestRandRanges(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	if r.Intn(0) != 0 || r.Int63n(0) != 0 {
		t.Fatal("zero-bound draws must return 0")
	}
}

// TestHeapOrderMatchesStableSort is the scheduler's ordering property:
// over seeded random schedules — pushes interleaved with pops, times
// drawn from a range narrow enough that most keys tie — popMin returns
// exactly what a stable sort by time of the still-pending keys, in
// schedule order, puts first.
func TestHeapOrderMatchesStableSort(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		ops    int
		spread int // distinct times; 1 = every key ties
		popPct int
	}{
		{1, 2000, 1, 30},
		{2, 5000, 4, 45},
		{3, 5000, 1000, 50},
		{4, 3000, 16, 10},
		{5, 3000, 3, 70},
	} {
		n := New(0)
		rng := NewRand(tc.seed)
		var ref []heapKey // pending keys; seq order within a time is preserved
		pop := func() {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].at < ref[j].at })
			want := ref[0]
			ref = ref[1:]
			got := n.popMin()
			n.free = append(n.free, got.slot)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: popped (at %d, seq %d), want (at %d, seq %d)",
					tc.seed, got.at, got.seq, want.at, want.seq)
			}
		}
		for i := 0; i < tc.ops; i++ {
			if len(ref) > 0 && rng.Intn(100) < tc.popPct {
				pop()
				continue
			}
			at := int64(rng.Intn(tc.spread))
			ref = append(ref, heapKey{at: at, seq: n.seq})
			n.schedule(at, event{})
		}
		for len(ref) > 0 {
			pop()
		}
		if n.Pending() != 0 {
			t.Fatalf("seed %d: %d keys left after draining the reference", tc.seed, n.Pending())
		}
	}
}

// TestSteadyStateAllocatesNothing guards the event loop's host cost as a
// relation: once the heap and the event slab have grown to the number of
// events in flight, sending a packet, arming a timer with a callback that
// already exists, and firing both allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	n := New(9)
	delivered, fired := 0, 0
	l := n.NewLink(100, 900, func(Packet) { delivered++ })
	l.LossPct, l.ReorderPct = 5, 10
	tick := func() { fired++ }
	cycle := func() {
		for i := 0; i < 32; i++ {
			l.Send(Packet{Flow: i, Seq: int64(i) * 1460, Len: 1460})
			n.After(int64(i)*10, tick)
		}
		n.Run()
	}
	cycle() // grow the heap and the slab to this cycle's peak
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("steady-state Send/After/Step allocated %.1f objects per 64-event cycle, want 0", avg)
	}
	if delivered == 0 || fired == 0 {
		t.Fatal("the measured cycle delivered or fired nothing")
	}
}
