package netstack

import (
	"fmt"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
)

// vservePair is one connection: the server-side VConn and the client
// endpoint it streams to, wired through a lossy pair of simplex links.
type vservePair struct {
	conn   *VConn
	client *VClient
}

// newVServePair wires connection id across the network with the given
// loss/reorder percentages on both directions.
func newVServePair(k *kernel.Kernel, srv *VServer, net *vnet.Net, id int, ctx *smp.Context,
	lossPct, reorderPct int, bufCap, drainBytes int, drainEvery int64) *vservePair {
	var conn *VConn
	var client *VClient
	// Server → client: data. Client → server: acks.
	s2c := net.NewLink(1000, 5000, func(p vnet.Packet) { client.HandleData(p) })
	s2c.LossPct, s2c.ReorderPct = lossPct, reorderPct
	c2s := net.NewLink(1000, 5000, func(p vnet.Packet) { conn.HandleAck(p) })
	c2s.LossPct, c2s.ReorderPct = lossPct, reorderPct
	sw := k.Consumer("vserve").SendWindow()
	conn = srv.NewVConn(id, ctx, s2c, sw)
	client = NewVClient(net, id, c2s, bufCap, drainBytes, drainEvery)
	return &vservePair{conn: conn, client: client}
}

// umRequest builds a VRequest of size bytes backed by user memory.
func umRequest(um *vm.UserMem, off int, size int64) *VRequest {
	return &VRequest{
		Size: size,
		PageAt: func(_ *smp.Context, pi int) (*vm.Page, error) {
			pg, _, err := um.PageAt(off + pi*vm.PageSize)
			return pg, err
		},
	}
}

func bootVServeKernel(t testing.TB, entries int) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMP(),
		Mapper:       kernel.SFBuf,
		PhysPages:    2048,
		Backed:       true,
		CacheEntries: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestVServeLossyCompletes streams several requests per connection over a
// 10%-loss, 20%-reorder network and checks every request completes, every
// byte arrives, and the mapping ledger balances at drain.
func TestVServeLossyCompletes(t *testing.T) {
	k := bootVServeKernel(t, 256)
	st := NewStack(k, MTUSmall)
	net := vnet.New(42)
	srv := NewVServer(st, net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}

	const conns, reqsPer = 8, 3
	sizes := []int64{1000, 3 * vm.PageSize, 17*vm.PageSize + 123}
	var want int64
	pairs := make([]*vservePair, conns)
	for i := 0; i < conns; i++ {
		p := newVServePair(k, srv, net, i, k.Ctx(i%k.M.NumCPUs()),
			10, 20, DefaultWindow, 16*1024, 20_000)
		pairs[i] = p
		for r := 0; r < reqsPer; r++ {
			sz := sizes[r%len(sizes)]
			want += sz
			p.conn.Enqueue(umRequest(um, 0, sz))
		}
	}
	if fired := net.RunLimit(5_000_000); net.Pending() != 0 {
		t.Fatalf("network did not quiesce after %d events", fired)
	}

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
	ss := srv.Stats()
	if ss.Completed != conns*reqsPer {
		t.Fatalf("completed %d requests, want %d", ss.Completed, conns*reqsPer)
	}
	if ss.Retransmits == 0 {
		t.Fatal("10%% loss produced zero retransmits — loss path untested")
	}
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("user page %d still wired after drain", i)
		}
	}
}

// TestVServeSlowReader pushes a large response at a client that drains a
// trickle: the advertised window must throttle the sender (bounded
// in-flight mappings) and the transfer must still complete, exercising
// window updates and — when an update is lost — zero-window probes.
func TestVServeSlowReader(t *testing.T) {
	k := bootVServeKernel(t, 256)
	st := NewStack(k, MTUSmall)
	net := vnet.New(7)
	srv := NewVServer(st, net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny receive buffer, slow drain, lossy ack path (to lose window
	// updates and force probes).
	p := newVServePair(k, srv, net, 0, k.Ctx(0), 15, 0, 8*1024, 2*1024, 10_000)
	size := int64(40 * vm.PageSize)
	p.conn.Enqueue(umRequest(um, 0, size))
	if net.RunLimit(5_000_000); net.Pending() != 0 {
		t.Fatal("slow-reader transfer did not quiesce")
	}
	if err := p.conn.Err(); err != nil {
		t.Fatal(err)
	}
	if got := p.client.Stats().BytesRecved; got != size {
		t.Fatalf("received %d bytes, want %d", got, size)
	}
	if srv.Stats().Completed != 1 {
		t.Fatal("request did not complete")
	}
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
}

// TestVServeStallBackoff overcommits a tiny mapping cache with many
// concurrent transfers: NoWait mapping failures must surface as counted
// stalls with backoff (not deadlock, not failure), and every transfer
// must still finish with the ledger balanced.
func TestVServeStallBackoff(t *testing.T) {
	k := bootVServeKernel(t, 32) // far smaller than aggregate demand
	st := NewStack(k, MTUSmall)
	net := vnet.New(11)
	srv := NewVServer(st, net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const conns = 12
	pairs := make([]*vservePair, conns)
	for i := range pairs {
		pairs[i] = newVServePair(k, srv, net, i, k.Ctx(i%k.M.NumCPUs()),
			0, 0, DefaultWindow, 32*1024, 20_000)
		pairs[i].conn.Enqueue(umRequest(um, 0, 24*vm.PageSize))
	}
	if net.RunLimit(5_000_000); net.Pending() != 0 {
		t.Fatal("overcommitted serve did not quiesce")
	}
	for i, p := range pairs {
		if err := p.conn.Err(); err != nil {
			t.Fatalf("conn %d failed: %v", i, err)
		}
		if got := p.client.Stats().BytesRecved; got != 24*vm.PageSize {
			t.Fatalf("conn %d received %d bytes", i, got)
		}
	}
	if srv.Stats().Stalls == 0 {
		t.Fatal("32-entry cache under 12 concurrent transfers produced zero stalls")
	}
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
}

// TestVServeChurnTeardown is the slow-reader teardown regression test: a
// connection aborted with transmitted-but-unacknowledged zero-copy pages
// must release each window's run references exactly once.  Double frees
// panic in mbuf.Ext; leaks fail the ledger check.  Clients are closed
// alongside the abort so late ACKs also exercise the closed-conn path.
func TestVServeChurnTeardown(t *testing.T) {
	k := bootVServeKernel(t, 256)
	st := NewStack(k, MTUSmall)
	net := vnet.New(1234)
	srv := NewVServer(st, net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	const conns = 16
	rng := vnet.NewRand(99)
	pairs := make([]*vservePair, conns)
	aborted := 0
	for i := range pairs {
		// Slow drains keep unacknowledged windows in flight at abort time.
		p := newVServePair(k, srv, net, i, k.Ctx(i%k.M.NumCPUs()),
			10, 10, 16*1024, 2*1024, 15_000)
		pairs[i] = p
		p.conn.Enqueue(umRequest(um, 0, 32*vm.PageSize))
		p.conn.Enqueue(umRequest(um, 0, 8*vm.PageSize))
		if i%2 == 0 {
			aborted++
			at := 5_000 + rng.Int63n(400_000) // mid-transfer, windows unacked
			conn, cl := p.conn, p.client
			net.After(at, func() {
				conn.Abort()
				cl.Close()
			})
		}
	}
	if net.RunLimit(10_000_000); net.Pending() != 0 {
		t.Fatal("churned serve did not quiesce")
	}
	for i, p := range pairs {
		if err := p.conn.Err(); err != nil {
			t.Fatalf("conn %d failed: %v", i, err)
		}
		if i%2 == 0 && !p.conn.Closed() {
			t.Fatalf("conn %d was scheduled for abort but is open", i)
		}
	}
	if got := srv.Stats().Aborted; got != uint64(aborted) {
		t.Fatalf("aborted %d conns, want %d", got, aborted)
	}
	// The regression claim: after churn plus drain, every mapping the
	// serve path allocated has been freed exactly once.
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("churn leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("user page %d still wired after churned drain", i)
		}
	}
}

// TestVServeAbortIdempotent aborts twice and replays a late ACK and a
// stale probe timer into the closed connection: nothing may double-free.
func TestVServeAbortIdempotent(t *testing.T) {
	k := bootVServeKernel(t, 256)
	st := NewStack(k, MTUSmall)
	net := vnet.New(5)
	srv := NewVServer(st, net)
	um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p := newVServePair(k, srv, net, 0, k.Ctx(0), 0, 0, DefaultWindow, 32*1024, 20_000)
	p.conn.Enqueue(umRequest(um, 0, 16*vm.PageSize))
	// Let a few transmissions happen, then abort mid-flight.
	net.RunLimit(3)
	p.conn.Abort()
	p.conn.Abort() // idempotent
	// Late ACK into the closed connection.
	p.conn.HandleAck(vnet.Packet{Flow: 0, Ack: 1460, Win: DefaultWindow, Flags: vnet.FlagAck})
	net.Run() // drain stale timers
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("abort leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
	if srv.Stats().Aborted != 1 {
		t.Fatalf("double abort counted twice: %d", srv.Stats().Aborted)
	}
}

// TestVServeDeterministicReplay runs the same churned, lossy serve twice
// against fresh kernels and requires byte-identical packet schedules and
// identical serving counters.
func TestVServeDeterministicReplay(t *testing.T) {
	run := func() (uint64, VServeStats, vnet.Stats, int64) {
		k := bootVServeKernel(t, 128)
		st := NewStack(k, MTUSmall)
		net := vnet.New(2026)
		srv := NewVServer(st, net)
		um, err := vm.AllocUserMem(k.M.Phys, 64*vm.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		const conns = 6
		for i := 0; i < conns; i++ {
			p := newVServePair(k, srv, net, i, k.Ctx(i%k.M.NumCPUs()),
				10, 20, 32*1024, 8*1024, 20_000)
			p.conn.Enqueue(umRequest(um, 0, int64(5+i)*vm.PageSize))
			if i == 2 {
				conn, cl := p.conn, p.client
				net.After(120_000, func() { conn.Abort(); cl.Close() })
			}
			defer func(p *vservePair) { bytes += p.client.Stats().BytesRecved }(p)
		}
		if net.RunLimit(5_000_000); net.Pending() != 0 {
			t.Fatal("replay run did not quiesce")
		}
		return net.TraceHash(), srv.Stats(), net.Stats(), bytes
	}
	h1, s1, n1, _ := run()
	h2, s2, n2, _ := run()
	if h1 != h2 {
		t.Fatalf("trace hash diverged: %#x != %#x", h1, h2)
	}
	if s1 != s2 {
		t.Fatalf("serve stats diverged:\n%+v\n%+v", s1, s2)
	}
	if n1 != n2 {
		t.Fatalf("net stats diverged:\n%+v\n%+v", n1, n2)
	}
}

// TestVServeConcurrentStress drives several independent virtual networks
// from separate goroutines against one shared kernel, with churn, for the
// race detector: the serving state is per-goroutine but every mapping
// operation contends on the shared engines.
func TestVServeConcurrentStress(t *testing.T) {
	k := bootVServeKernel(t, 256)
	st := NewStack(k, MTUSmall)
	const workers, conns = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := vnet.New(uint64(1000 + w))
			srv := NewVServer(st, net)
			um, err := vm.AllocUserMem(k.M.Phys, 32*vm.PageSize)
			if err != nil {
				errs <- err
				return
			}
			pairs := make([]*vservePair, conns)
			for i := range pairs {
				ctx := k.Ctx((w*conns + i) % k.M.NumCPUs())
				p := newVServePair(k, srv, net, i, ctx, 10, 10, 16*1024, 4*1024, 15_000)
				pairs[i] = p
				p.conn.Enqueue(umRequest(um, 0, 12*vm.PageSize))
				if i%3 == 0 {
					conn, cl := p.conn, p.client
					net.After(80_000, func() { conn.Abort(); cl.Close() })
				}
			}
			if net.RunLimit(5_000_000); net.Pending() != 0 {
				errs <- fmt.Errorf("worker %d did not quiesce", w)
				return
			}
			for i, p := range pairs {
				if err := p.conn.Err(); err != nil {
					errs <- fmt.Errorf("worker %d conn %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st2 := k.Map.Stats(); st2.Allocs != st2.Frees {
		t.Fatalf("concurrent serve leaked mappings: allocs %d != frees %d", st2.Allocs, st2.Frees)
	}
}

// TestOOODuplicateQueuedOnce: an out-of-order segment delivered twice —
// a duplicate frame, or a retransmission that races the original past a
// hole — is queued once and counted once.
func TestOOODuplicateQueuedOnce(t *testing.T) {
	net := vnet.New(1)
	cl := NewVClient(net, 0, net.NewLink(1000, 1000, func(vnet.Packet) {}), DefaultWindow, 1460, 20_000)
	seg := vnet.Packet{Seq: 2920, Len: 1460}
	cl.HandleData(seg)
	cl.HandleData(seg)
	if len(cl.ooo) != 1 || cl.Stats().OOOQueued != 1 {
		t.Fatalf("a segment delivered twice past a hole: %d queued, OOOQueued %d; want 1 and 1",
			len(cl.ooo), cl.Stats().OOOQueued)
	}
	// Filling the hole pulls the one queued copy.
	cl.HandleData(vnet.Packet{Seq: 0, Len: 2920})
	if len(cl.ooo) != 0 || cl.Stats().BytesRecved != 4380 {
		t.Fatalf("after the hole filled: %d queued, %d bytes received; want 0 and 4380",
			len(cl.ooo), cl.Stats().BytesRecved)
	}
}
