package vnet

import (
	"fmt"
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

// TestScheduleOrderMatchesStableSort is the scheduler's ordering
// property: over seeded random schedules whose callbacks schedule more
// events as they fire, Step fires exactly what a stable sort by time of
// the pending events, in schedule order, puts first.  Delays are drawn at
// the wheel's edge (W-1, W, W+1), just inside and beyond it, and laps
// ahead, from times narrow enough that most events tie, so far events
// migrate into cycles that direct inserts join later, ties mix both
// containers, slots are reused lap after lap, and (in the sparse cases,
// whose schedules die out and are re-seeded) the wheel empties while the
// heap still holds events.  The test counts those situations, and
// the test fails if any of them never happened.
func TestScheduleOrderMatchesStableSort(t *testing.T) {
	const W = wheelSize
	var mixedTies, jumps, reuses int
	for _, tc := range []struct {
		seed   uint64
		events int
		burst  int   // events scheduled from outside whenever none are pending
		spread int64 // width of each delay class; 1 = maximal ties
	}{
		{1, 3000, 64, 1},
		{2, 5000, 64, 4},
		{3, 5000, 64, 64},
		{4, 4000, 64, 1000},
		{5, 3000, 64, W / 2},
		{6, 3000, 2, 1},
		{7, 3000, 3, 16},
	} {
		n := New(0)
		rng := NewRand(tc.seed)
		type pend struct {
			at  int64
			id  int
			far bool // scheduled at least W ahead: it went to the heap
		}
		var ref []pend // pending events in schedule order
		var last pend
		lastAt := map[int64]int64{} // wheel slot -> last cycle fired there
		scheduled := 0
		delay := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return W - 1 + rng.Int63n(3)
			case 2:
				return W - 1 - rng.Int63n(tc.spread)
			case 3:
				return W + rng.Int63n(tc.spread)
			case 4:
				return rng.Int63n(tc.spread)
			case 5:
				return int64(2+rng.Intn(3))*W + rng.Int63n(tc.spread)
			default:
				return rng.Int63n(W + tc.spread)
			}
		}
		var add func()
		add = func() {
			id, d := scheduled, delay()
			scheduled++
			ref = append(ref, pend{at: n.Now() + d, id: id, far: d >= W})
			n.After(d, func() {
				best := 0
				for i, p := range ref {
					if p.at < ref[best].at {
						best = i
					}
				}
				want := ref[best]
				ref = append(ref[:best], ref[best+1:]...)
				if id != want.id || n.Now() != want.at {
					t.Fatalf("seed %d: fired event %d at %d, want event %d at %d",
						tc.seed, id, n.Now(), want.id, want.at)
				}
				if want.at == last.at && want.far != last.far {
					mixedTies++
				}
				if prev, ok := lastAt[want.at&(W-1)]; ok && prev != want.at {
					reuses++
				}
				lastAt[want.at&(W-1)], last = want.at, want
				for k := rng.Intn(3); k > 0 && scheduled < tc.events; k-- {
					add()
				}
			})
		}
		for scheduled < tc.events {
			for i := 0; i < tc.burst; i++ {
				add()
			}
			for {
				if n.wheelN == 0 && len(n.heap) > 0 {
					jumps++
				}
				if !n.Step() {
					break
				}
			}
		}
		if len(ref) != 0 || n.Pending() != 0 {
			t.Fatalf("seed %d: %d reference events and %d scheduled ones left", tc.seed, len(ref), n.Pending())
		}
	}
	if mixedTies == 0 || jumps == 0 || reuses == 0 {
		t.Fatalf("schedules missed a case: %d ties across containers, %d jumps to a far event, %d slot reuses",
			mixedTies, jumps, reuses)
	}
}

// TestEdgeDelaysFireInOrder pins the wheel's boundary by hand: events
// W-1, W and W+1 cycles out go to the wheel, the heap and the heap, and a
// far event's cycle later joined by a direct insert fires the far event
// first.
func TestEdgeDelaysFireInOrder(t *testing.T) {
	const W = wheelSize
	n := New(0)
	var order []int
	mark := func(id int) func() { return func() { order = append(order, id) } }
	n.After(W+1, mark(3))
	n.After(W, mark(2))
	n.After(W-1, mark(1))
	if n.wheelN != 1 || len(n.heap) != 2 {
		t.Fatalf("wheel %d, heap %d after W-1, W, W+1: want 1 and 2", n.wheelN, len(n.heap))
	}
	n.After(10, func() {
		order = append(order, 0)
		n.After(W-10, mark(4)) // same cycle as event 2, scheduled later
	})
	n.Run()
	want := []int{0, 1, 2, 4, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
}

// TestSchedulePastPanics: an event due before now would fire ahead of
// events already due at now, so scheduling one panics.  After floors
// negative delays; only a link with a negative delay can reach it.
func TestSchedulePastPanics(t *testing.T) {
	n := New(1)
	l := n.NewLink(-5, -5, func(Packet) {})
	n.After(-3, func() {}) // floored: fine
	defer func() {
		if recover() == nil {
			t.Fatal("a delivery due 5 cycles in the past was scheduled without a panic")
		}
	}()
	l.Send(Packet{})
}

// foldBytewise is fold's reference: eight FNV-1a steps, low byte first.
func foldBytewise(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v>>i)&0xff) * fnvPrime
	}
	return h
}

// TestFoldMatchesBytewise: skipping the zero high bytes must digest
// exactly what eight steps do, interior zero bytes included.
func TestFoldMatchesBytewise(t *testing.T) {
	vals := []uint64{0, 1, 0xff, 0x100, 0x1_0000_0001, 0xff00_0000_00ff,
		1<<56 - 1, 1 << 56, 1<<63 | 1, 1<<64 - 1, uint64(0x5eed) << 24}
	for _, neg := range []int64{-1, -2, -1460, -1 << 40, -1 << 63} {
		vals = append(vals, uint64(neg))
	}
	for _, h := range []uint64{fnvOffset, 0, 1<<64 - 1} {
		for _, v := range vals {
			if got, want := fold(h, v), foldBytewise(h, v); got != want {
				t.Fatalf("fold(%#x, %#x) = %#x, want %#x", h, v, got, want)
			}
		}
	}
}

// FuzzFold holds fold to the bytewise reference on arbitrary inputs.
func FuzzFold(f *testing.F) {
	f.Add(uint64(fnvOffset), uint64(0))
	f.Add(uint64(fnvOffset), uint64(1<<56-1))
	f.Add(uint64(0), uint64(1<<64-1))
	f.Add(uint64(12345), uint64(0x00ff_0000_ff00_0001))
	f.Fuzz(func(t *testing.T, h, v uint64) {
		if got, want := fold(h, v), foldBytewise(h, v); got != want {
			t.Fatalf("fold(%#x, %#x) = %#x, want %#x", h, v, got, want)
		}
	})
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
