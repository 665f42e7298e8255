package netstack

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func bootNetKernel(t *testing.T, mk kernel.MapperKind, plat arch.Platform) *kernel.Kernel {
	t.Helper()
	k, err := kernel.Boot(kernel.Config{
		Platform:     plat,
		Mapper:       mk,
		PhysPages:    1024,
		Backed:       true,
		CacheEntries: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sendRecv(t *testing.T, k *kernel.Kernel, mtu, size int) ([]byte, []byte, *Conn) {
	t.Helper()
	st := NewStack(k, mtu)
	c := st.NewConn()
	um, err := vm.AllocUserMem(k.M.Phys, size)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(want)
	if err := um.WriteAt(0, want); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 0, size)
	done := make(chan error, 1)
	go func() {
		rctx := k.Ctx(k.M.NumCPUs() - 1)
		buf := make([]byte, 32*1024)
		for len(got) < size {
			n, err := c.Recv(rctx, buf)
			if err != nil {
				done <- err
				return
			}
			got = append(got, buf[:n]...)
		}
		done <- nil
	}()
	if err := c.SendZeroCopy(k.Ctx(0), um, 0, size); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// All acknowledged: every page unwired.
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d still wired after acks", i)
		}
	}
	return got, want, c
}

func TestZeroCopySendRoundTrip(t *testing.T) {
	for _, mk := range []kernel.MapperKind{kernel.SFBuf, kernel.OriginalKernel} {
		k := bootNetKernel(t, mk, arch.XeonMP())
		got, want, _ := sendRecv(t, k, MTUSmall, 200*1024)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: zero-copy send corrupted data", mk)
		}
	}
}

func TestLargeMTUFewerPackets(t *testing.T) {
	k1 := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	_, _, cSmall := sendRecv(t, k1, MTUSmall, 128*1024)
	k2 := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	_, _, cLarge := sendRecv(t, k2, MTULarge, 128*1024)
	if cLarge.Stats().PacketsSent >= cSmall.Stats().PacketsSent {
		t.Fatalf("large MTU sent %d packets, small %d — want fewer",
			cLarge.Stats().PacketsSent, cSmall.Stats().PacketsSent)
	}
}

func TestChecksumOffloadSkipsTouching(t *testing.T) {
	// The Figure 19/20 effect, pinned on the paper's global-lock cache
	// (the engine those figures measure).  A mapping cache of 16 entries
	// with two alternating 16-page send buffers forces a miss on every
	// mapping.  With checksum offload (and an external sink that never
	// copies), nothing ever touches the payload through the mappings: the
	// PTE accessed bits stay clear and the accessed-bit optimization
	// elides every invalidation.  With software checksums, the CPU
	// touches each page, so every miss-reuse pays an invalidation.
	//
	// The sink's window is kept below one send so acknowledgments free
	// each send's mappings before the next send needs the cache.
	//
	// (The sharded default no longer shows the software-checksum cost on
	// this workload at all: the alternating extents revive their parked
	// run windows like hash hits, so no mapping is ever torn down — see
	// TestZeroCopyRevivesAlternatingBuffers.)
	run := func(offload bool) uint64 {
		k, err := kernel.Boot(kernel.Config{
			Platform: arch.XeonMP(), Mapper: kernel.SFBuf,
			Cache:     kernel.CacheGlobal,
			PhysPages: 1024, Backed: true, CacheEntries: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStack(k, MTULarge)
		st.ChecksumOffload = offload
		c := st.NewSinkConn()
		c.SetWindow(8 * 1024)
		ctx := k.Ctx(0)
		umA, _ := vm.AllocUserMem(k.M.Phys, 64*1024)
		umB, _ := vm.AllocUserMem(k.M.Phys, 64*1024)
		for i := 0; i < 6; i++ {
			if i == 1 {
				// One warmup round populates the cache's cold
				// buffers (first use of a fresh sf_buf purges the
				// CPU's TLB once); measure steady state after it.
				k.Reset()
			}
			for _, um := range []*vm.UserMem{umA, umB} {
				if err := c.SendZeroCopy(ctx, um, 0, 64*1024); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.Close(ctx)
		return k.M.Counters().LocalInv.Load()
	}
	if got := run(true); got != 0 {
		t.Fatalf("offload run issued %d local invalidations, want 0", got)
	}
	if got := run(false); got == 0 {
		t.Fatal("software checksum run must issue invalidations under cache pressure")
	}
}

// TestZeroCopyRevivesAlternatingBuffers pins the page-set window cache
// at subsystem level: the same alternating-buffer workload that costs
// the paper's cache one invalidation per touched miss-reuse costs the
// sharded default NOTHING — each send's packet extents revive their
// parked run windows (no PTE writes, no teardown, no invalidations),
// even with software checksums touching every page.
func TestZeroCopyRevivesAlternatingBuffers(t *testing.T) {
	k, err := kernel.Boot(kernel.Config{
		Platform: arch.XeonMP(), Mapper: kernel.SFBuf,
		PhysPages: 1024, Backed: true, CacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStack(k, MTULarge)
	st.ChecksumOffload = false
	c := st.NewSinkConn()
	c.SetWindow(8 * 1024)
	ctx := k.Ctx(0)
	umA, _ := vm.AllocUserMem(k.M.Phys, 64*1024)
	umB, _ := vm.AllocUserMem(k.M.Phys, 64*1024)
	for i := 0; i < 6; i++ {
		if i == 1 {
			k.Reset()
		}
		for _, um := range []*vm.UserMem{umA, umB} {
			if err := c.SendZeroCopy(ctx, um, 0, 64*1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close(ctx)
	st2 := k.Map.Stats()
	if st2.RunRevives == 0 {
		t.Fatal("alternating send buffers never revived a parked window")
	}
	if got := k.M.Counters().LocalInv.Load(); got != 0 {
		t.Fatalf("revive-served sends issued %d local invalidations, want 0", got)
	}
	if got := k.M.Counters().RemoteInvIssued.Load(); got != 0 {
		t.Fatalf("revive-served sends issued %d remote rounds, want 0", got)
	}
}

func TestSinkConnNeverBlocksAndReleases(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	st := NewStack(k, MTUSmall)
	c := st.NewSinkConn()
	ctx := k.Ctx(0)
	um, _ := vm.AllocUserMem(k.M.Phys, 256*1024)
	// Far more than one window: the sink must self-ack.
	for i := 0; i < 8; i++ {
		if err := c.SendZeroCopy(ctx, um, 0, 256*1024); err != nil {
			t.Fatal(err)
		}
	}
	c.Close(ctx)
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d still wired after close", i)
		}
	}
}

func TestWindowBlocksSender(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	st := NewStack(k, MTUSmall)
	c := st.NewConn()
	c.SetWindow(8 * 1024)
	um, _ := vm.AllocUserMem(k.M.Phys, 64*1024)

	sent := make(chan error, 1)
	go func() {
		sent <- c.SendZeroCopy(k.Ctx(0), um, 0, 64*1024)
	}()
	// Drain slowly; the sender must complete only after drains.
	rctx := k.Ctx(1)
	total := 0
	buf := make([]byte, 4096)
	for total < 64*1024 {
		n, err := c.Recv(rctx, buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

func TestMappingsPersistUntilAck(t *testing.T) {
	// While packets sit unacknowledged in the window, their pages remain
	// wired and mapped; Recv (the ack) releases them.
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	st := NewStack(k, MTUSmall)
	c := st.NewConn()
	ctx := k.Ctx(0)
	um, _ := vm.AllocUserMem(k.M.Phys, 16*1024)

	if err := c.SendZeroCopy(ctx, um, 0, 16*1024); err != nil {
		t.Fatal(err)
	}
	wired := 0
	for _, pg := range um.Pages() {
		if pg.Wired() {
			wired++
		}
	}
	if wired != 4 {
		t.Fatalf("wired pages = %d, want 4 while unacked", wired)
	}
	buf := make([]byte, 16*1024)
	total := 0
	for total < 16*1024 {
		n, err := c.Recv(k.Ctx(1), buf)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	for i, pg := range um.Pages() {
		if pg.Wired() {
			t.Fatalf("page %d still wired after ack", i)
		}
	}
}

func TestRecvAfterCloseDrainsThenEOF(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	st := NewStack(k, MTUSmall)
	c := st.NewConn()
	ctx := k.Ctx(0)
	c.Close(ctx)
	if _, err := c.Recv(ctx, make([]byte, 10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := c.SendZeroCopy(ctx, mustUM(t, k, 8192), 0, 8192); !errors.Is(err, ErrClosed) {
		t.Fatalf("send err = %v, want ErrClosed", err)
	}
}

func mustUM(t *testing.T, k *kernel.Kernel, n int) *vm.UserMem {
	t.Helper()
	um, err := vm.AllocUserMem(k.M.Phys, n)
	if err != nil {
		t.Fatal(err)
	}
	return um
}

func TestSendBounds(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonUP())
	st := NewStack(k, MTUSmall)
	c := st.NewConn()
	um := mustUM(t, k, 4096)
	if err := c.SendZeroCopy(k.Ctx(0), um, 0, 8192); !errors.Is(err, vm.ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
}

// --- zero-copy receive ---

func TestZeroCopyReceivePageFlip(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.OpteronMP())
	st := NewStack(k, vm.PageSize+HeaderSize) // MSS = exactly one page
	c := st.NewZeroCopyRxConn()
	ctx := k.Ctx(0)

	src := mustUM(t, k, vm.PageSize)
	want := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(9)).Read(want)
	src.WriteAt(0, want)

	if err := c.SendZeroCopy(ctx, src, 0, vm.PageSize); err != nil {
		t.Fatal(err)
	}
	dst := mustUM(t, k, vm.PageSize)
	rctx := k.Ctx(1)
	n, err := c.RecvZeroCopy(rctx, dst, 0)
	if err != nil || n != vm.PageSize {
		t.Fatalf("recv = (%d, %v)", n, err)
	}
	got := make([]byte, vm.PageSize)
	dst.ReadAt(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("page flip delivered wrong data")
	}
	if c.Stats().PageFlips != 1 || c.Stats().RxCopies != 0 {
		t.Fatalf("stats = %+v: aligned full-page receive must flip", c.Stats())
	}
}

func TestZeroCopyReceiveFallbackCopy(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.OpteronMP())
	st := NewStack(k, MTUSmall) // MSS < page: cannot flip
	c := st.NewZeroCopyRxConn()
	ctx := k.Ctx(0)

	src := mustUM(t, k, 2048)
	want := make([]byte, 1400)
	rand.New(rand.NewSource(10)).Read(want)
	src.WriteAt(0, want)

	if err := c.SendZeroCopy(ctx, src, 0, 1400); err != nil {
		t.Fatal(err)
	}
	dst := mustUM(t, k, vm.PageSize)
	n, err := c.RecvZeroCopy(k.Ctx(1), dst, 0)
	if err != nil || n != 1400 {
		t.Fatalf("recv = (%d, %v)", n, err)
	}
	got := make([]byte, 1400)
	dst.ReadAt(0, got)
	if !bytes.Equal(got, want) {
		t.Fatal("fallback copy delivered wrong data")
	}
	if c.Stats().PageFlips != 0 || c.Stats().RxCopies != 1 {
		t.Fatalf("stats = %+v: sub-page receive must copy", c.Stats())
	}
}

func TestZeroCopyRxNoPageLeaks(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.OpteronMP())
	st := NewStack(k, vm.PageSize+HeaderSize)
	c := st.NewZeroCopyRxConn()
	ctx := k.Ctx(0)
	free := k.M.Phys.FreeFrames()

	src := mustUM(t, k, 4*vm.PageSize)
	dst := mustUM(t, k, 4*vm.PageSize)
	afterAlloc := k.M.Phys.FreeFrames()
	if err := c.SendZeroCopy(ctx, src, 0, 4*vm.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.RecvZeroCopy(k.Ctx(1), dst, i*vm.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.M.Phys.FreeFrames(); got != afterAlloc {
		t.Fatalf("frames leaked: %d -> %d", afterAlloc, got)
	}
	c.Close(ctx)
	src.Release()
	dst.Release()
	if got := k.M.Phys.FreeFrames(); got != free {
		t.Fatalf("frames leaked after release: %d -> %d", free, got)
	}
}

func TestZeroCopyRxRejectsOversizedMSS(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.OpteronMP())
	st := NewStack(k, MTULarge) // MSS far beyond one page
	defer func() {
		if recover() == nil {
			t.Fatal("zero-copy rx with MSS > page must panic")
		}
	}()
	st.NewZeroCopyRxConn()
}

func TestMSSValidation(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonUP())
	defer func() {
		if recover() == nil {
			t.Fatal("tiny MTU must panic")
		}
	}()
	NewStack(k, HeaderSize)
}

// TestSoftwareChecksumOverRunsUsesRangedTranslate pins the checksum-over-
// runs satellite: with offload disabled on a run-mapped send path
// (sharded engine, large MTU so one packet spans several pages), the
// software checksum sweeps each packet's window with one ranged translate
// instead of one walk per page — so the walk bill stays near one per
// PACKET, not one per page.  A sink connection isolates the send side.
func TestSoftwareChecksumOverRunsUsesRangedTranslate(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	if !k.Plan.Runs {
		t.Fatal("sharded sf_buf kernel should take the run send path")
	}
	st := NewStack(k, MTULarge) // MSS crosses ~4 pages per packet
	st.ChecksumOffload = false
	c := st.NewSinkConn()
	defer c.Close(k.Ctx(0))
	const size = 256 * 1024
	um, err := vm.AllocUserMem(k.M.Phys, size)
	if err != nil {
		t.Fatal(err)
	}
	ctx := k.Ctx(0)
	before := k.M.SnapshotCounters()
	if err := c.SendZeroCopy(ctx, um, 0, size); err != nil {
		t.Fatal(err)
	}
	d := k.M.SnapshotCounters().Sub(before)
	sent := c.Stats().PacketsSent
	pages := uint64(size / vm.PageSize)
	t.Logf("packets=%d pages=%d walks=%d", sent, pages, d.PTWalks)
	if d.PTWalks >= pages {
		t.Errorf("walks = %d for %d checksummed pages: the per-page translate is back", d.PTWalks, pages)
	}
	// One ranged walk per packet checksum plus map-side noise; 2x packet
	// count is a comfortable deterministic bound far below the page count.
	if d.PTWalks > 2*sent {
		t.Errorf("walks = %d, want <= 2x packet count %d", d.PTWalks, sent)
	}
}

// narrowMapper declines every multi-page mapping with
// sfbuf.ErrBatchTooLarge, as a mapping cache narrower than the request
// does, and serves single pages from the kernel's own mapper.
type narrowMapper struct{ sfbuf.Mapper }

func (narrowMapper) AllocBatch(*smp.Context, []*vm.Page, sfbuf.Flags) ([]*sfbuf.Buf, error) {
	return nil, sfbuf.ErrBatchTooLarge
}

func (narrowMapper) AllocRun(*smp.Context, []*vm.Page, sfbuf.Flags) (*sfbuf.Run, error) {
	return nil, sfbuf.ErrBatchTooLarge
}

// TestZeroCopyDeclinedWindowFallsBackPerPage is the zero-copy twin of
// sendfile's tiny-cache test: a packet whose window the consumer handle
// cannot map must still flow, one mapping per page, and release every
// mapping and wiring on acknowledgment.  A packet genuinely wider than
// the cache cannot finish this way — the fallback holds all of one
// packet's pages at once — so the mapper here declines every multi-page
// request on a cache that holds them.
func TestZeroCopyDeclinedWindowFallsBackPerPage(t *testing.T) {
	k := bootNetKernel(t, kernel.SFBuf, arch.XeonMP())
	if !k.WindowedSend() {
		t.Fatal("the sharded kernel should send in windows")
	}
	k.Map = narrowMapper{k.Map}
	got, want, _ := sendRecv(t, k, MTULarge, 200*1024)
	if !bytes.Equal(got, want) {
		t.Fatal("per-page fallback corrupted data")
	}
	st := k.Map.Stats()
	if st.Allocs == 0 || st.Allocs != st.Frees {
		t.Fatalf("allocs %d, frees %d: want equal and nonzero after the drain", st.Allocs, st.Frees)
	}
	if st.BatchAllocs != 0 || st.RunAllocs != 0 {
		t.Fatalf("%d batches and %d runs mapped; every window was declined", st.BatchAllocs, st.RunAllocs)
	}
	if ps := k.PolicyStats(); len(ps) != 1 || ps[0].Name != "netstack" || ps[0].Observations == 0 {
		t.Fatalf("policy stats %+v: the netstack consumer should have observed each packet", ps)
	}
}
