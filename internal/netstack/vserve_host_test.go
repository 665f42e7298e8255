package netstack

import (
	"runtime"
	"testing"

	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
)

// The serving plane's host cost, guarded as relations at this package's
// own scale (never as numbers from the benchmark): what a queue retains,
// what re-arming a timer allocates, what delivering a page allocates.

// TestFifoReleasesPoppedSlots is the retention regression test.  The
// queues used to be slid with s = s[1:], which left every popped pointer
// reachable from the backing array's prefix — a released segment pinned
// its chain, external storage and sf_buf until the next regrow — and made
// append reallocate as the window slid.
func TestFifoReleasesPoppedSlots(t *testing.T) {
	var q fifo[*int]
	for i := 0; i < 4; i++ {
		q.push(new(int))
	}
	backing := q.items[:cap(q.items)]
	q.pop()
	q.pop()
	if backing[0] != nil || backing[1] != nil {
		t.Fatal("popped slots still hold their pointers")
	}
	if q.len() != 2 || q.front() != backing[2] {
		t.Fatalf("queue lost its order: len %d", q.len())
	}

	// A window sliding at constant depth must settle in one backing
	// array: compaction, not growth.
	for i := 0; i < 64; i++ {
		q.push(new(int))
		q.pop()
	}
	settled := cap(q.items)
	for i := 0; i < 10_000; i++ {
		q.push(new(int))
		q.pop()
	}
	if cap(q.items) != settled {
		t.Fatalf("backing array went from %d to %d slots under a depth-2 sliding window", settled, cap(q.items))
	}
	for i, p := range q.items[:q.head] {
		if p != nil {
			t.Fatalf("dead prefix slot %d still holds a pointer", i)
		}
	}
	for _, p := range q.items[len(q.items):cap(q.items)] {
		if p != nil {
			t.Fatal("compaction left a stale pointer beyond the live items")
		}
	}

	// Draining resets the queue onto the same array.
	for q.len() > 0 {
		q.pop()
	}
	if q.head != 0 || len(q.items) != 0 || cap(q.items) != settled {
		t.Fatalf("drained queue: head %d len %d cap %d, want 0 0 %d", q.head, len(q.items), cap(q.items), settled)
	}
}

// TestTimerRearmAllocatesNothing: the RTO and drain timers are method
// values bound once per endpoint, so a timer that fires and re-arms
// allocates nothing, and neither does what it does on the way (a
// retransmission through the retained mapping, a window update).
func TestTimerRearmAllocatesNothing(t *testing.T) {
	k := bootVServeKernel(t, 256)
	net := vnet.New(3)
	srv := NewVServer(NewStack(k, MTUSmall), net)
	um, err := vm.AllocUserMem(k.M.Phys, 4*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}

	// RTO: the client has vanished, so nothing is ever acknowledged and
	// every RTO retransmits the first hole and re-arms.
	p := newVServePair(k, srv, net, 0, k.Ctx(0), 10, 10, DefaultWindow, 16*1024, 20_000)
	p.client.Close()
	p.conn.Enqueue(umRequest(um, 0, 2*vm.PageSize))
	net.RunLimit(64) // first transmissions; the event slab reaches its peak
	before := srv.Stats().Retransmits
	if avg := testing.AllocsPerRun(200, func() { net.Step() }); avg != 0 {
		t.Errorf("an RTO firing, retransmitting and re-arming allocated %.2f objects per event, want 0", avg)
	}
	if srv.Stats().Retransmits-before < 50 {
		t.Fatalf("only %d retransmissions in the measured window: the RTO path did not run",
			srv.Stats().Retransmits-before)
	}
	p.conn.Abort()
	net.Run()

	// Drain: a client with bytes buffered reads on its timer and
	// re-advertises its window each time.
	acks := 0
	cl := NewVClient(net, 1, net.NewLink(1000, 5000, func(vnet.Packet) { acks++ }), 1<<30, 1, 20_000)
	cl.HandleData(vnet.Packet{Flow: 1, Len: 1 << 20})
	net.RunLimit(64)
	acks = 0
	if avg := testing.AllocsPerRun(200, func() { net.Step() }); avg != 0 {
		t.Errorf("a drain timer firing and re-arming allocated %.2f objects per event, want 0", avg)
	}
	if acks < 50 {
		t.Fatalf("only %d window updates in the measured window: the drain path did not run", acks)
	}
}

// TestVServeAllocsPerPage bounds the heap allocations of a lossy,
// reordering, multi-connection run per page delivered.  Segments,
// chains, mbufs, externals, events and timers are all recycled, so what
// is left is per mapping window (the page slice, the run and its release
// state), not per packet: a change that puts a `new` back on the
// per-packet path multiplies this figure and fails here, not in a
// benchmark review.  (This run made 27.6 per page before the serving
// plane was made allocation-free per packet, and makes 3.7 now.)
func TestVServeAllocsPerPage(t *testing.T) {
	const maxAllocsPerPage = 8
	k := bootVServeKernel(t, 512)
	net := vnet.New(77)
	srv := NewVServer(NewStack(k, MTUSmall), net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const conns, reqsPer = 8, 4
	pairs := make([]*vservePair, conns)
	for i := range pairs {
		pairs[i] = newVServePair(k, srv, net, i, k.Ctx(i%k.M.NumCPUs()),
			5, 10, DefaultWindow, 32*1024, 20_000)
	}
	var want int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for _, p := range pairs {
		for r := 0; r < reqsPer; r++ {
			size := int64(40+8*r) * vm.PageSize
			want += size
			p.conn.Enqueue(umRequest(um, 0, size))
		}
	}
	if net.RunLimit(20_000_000); net.Pending() != 0 {
		t.Fatal("run did not quiesce")
	}
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - before

	var got int64
	for i, p := range pairs {
		if err := p.conn.Err(); err != nil {
			t.Fatalf("conn %d failed: %v", i, err)
		}
		got += p.client.Stats().BytesRecved
	}
	if got != want {
		t.Fatalf("clients received %d bytes, want %d", got, want)
	}
	if srv.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions: the lossy path was not exercised")
	}
	pages := got / vm.PageSize
	perPage := float64(allocs) / float64(pages)
	t.Logf("%d allocations over %d pages: %.2f per page", allocs, pages, perPage)
	if perPage > maxAllocsPerPage {
		t.Fatalf("%.2f heap allocations per delivered page, want <= %d", perPage, maxAllocsPerPage)
	}
}
