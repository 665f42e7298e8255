package vnet

import "testing"

// goldenSchedule drives a small scripted schedule through every ordering
// case the scheduler has: timers and deliveries tied at one instant,
// After(0) and negative delays from inside a firing callback, zero-delay
// links whose deliveries tie with timers, and a callback that schedules
// far more events than were ever pending (the event storage grows while
// one of its events is executing).  TraceHash does not tell tied timers
// apart — each folds only ('T', now) — so the firing order of the
// script's own labels is digested beside it.
func goldenSchedule() (hash uint64, st Stats, order uint64, end int64) {
	n := New(0x5eed)
	order = fnvOffset
	mark := func(id int) {
		for i := 0; i < 8; i++ {
			order ^= (uint64(id) >> (8 * i)) & 0xff
			order *= fnvPrime
		}
	}

	var lossy, instant *Link
	lossy = n.NewLink(100, 900, func(p Packet) {
		mark(1000 + int(p.Seq))
		if p.Seq%3 == 0 {
			// Ties with whatever else is due now: same time, later seq.
			instant.Send(Packet{Flow: p.Flow, Ack: p.Seq, Win: 4096, Flags: FlagAck})
			n.After(0, func() { mark(3000 + int(p.Seq)) })
		}
	})
	lossy.LossPct, lossy.ReorderPct, lossy.ReorderDelay = 15, 25, 50
	instant = n.NewLink(0, 0, func(p Packet) {
		mark(2000 + int(p.Ack))
		if p.Ack%2 == 0 {
			n.After(-7, func() { mark(4000 + int(p.Ack)) })
		}
	})

	// Long runs of ties: eight timers at each of five instants, scheduled
	// in an order that is neither by time nor by label.
	for i := 0; i < 40; i++ {
		at, id := int64((i*7)%5)*250, i
		n.After(at, func() {
			mark(id)
			lossy.Send(Packet{Flow: id % 4, Seq: int64(id), Len: 1460})
			if id%5 == 0 {
				n.After(0, func() { mark(100 + id) })
				n.After(-1, func() { mark(200 + id) })
			}
		})
	}
	// A burst from inside one callback: 300 events scheduled while only a
	// few dozen have ever been pending, half of them tied.
	n.After(600, func() {
		mark(500)
		for j := 0; j < 300; j++ {
			if j%2 == 0 {
				n.After(int64(j%6)*10, func() { mark(5000 + j) })
			} else {
				lossy.Send(Packet{Flow: 9, Seq: int64(100 + j), Len: j, Flags: FlagFin})
			}
		}
	})
	n.Run()
	return n.TraceHash(), n.Stats(), order, n.Now()
}

// TestGoldenSchedule pins the scripted schedule to values captured on the
// commit before the scheduler was rewritten (container/heap over
// []*event): a scheduler that fires ties in a different order, counts
// differently or folds the digest differently fails here, where the
// self-comparing determinism tests would pass.
func TestGoldenSchedule(t *testing.T) {
	hash, st, order, end := goldenSchedule()
	const (
		wantHash  = uint64(0xd430196f2bc4dd0b)
		wantOrder = uint64(0xb29c235a33be41a9)
		wantEnd   = int64(1788)
	)
	wantStats := Stats{Sent: 245, Delivered: 216, Dropped: 29, Reordered: 40, Timers: 269, Events: 485}
	if hash != wantHash || order != wantOrder || end != wantEnd || st != wantStats {
		t.Fatalf("scripted schedule moved:\n got hash %#x order %#x end %d stats %+v\nwant hash %#x order %#x end %d stats %+v",
			hash, order, end, st, wantHash, wantOrder, wantEnd, wantStats)
	}
}
