// Package netstack implements the simulated networking subsystem: sockets
// with zero-copy send (Section 2.3), MTU segmentation, software TCP
// checksums vs checksum offload, a TCP-like send window whose
// acknowledgments control when mbuf chains — and therefore ephemeral
// mappings — are released, and a zero-copy receive path with page
// flipping.
//
// Transport is loopback: the netperf experiment runs client and server on
// the same machine exactly as the paper's Section 6.5.1 does.  For the web
// server experiment the peer is an external client (a different machine),
// modeled as a sink endpoint that consumes packets without charging this
// machine's CPUs.
package netstack

import (
	"errors"
	"fmt"
	"sync"

	"sfbuf/internal/cycles"
	"sfbuf/internal/kcopy"
	"sfbuf/internal/kernel"
	"sfbuf/internal/mbuf"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

const (
	// DefaultWindow is the socket buffer / send window: "TCP socket send
	// and receive buffer sizes are set to 64 KB" (Section 6.5.1).
	DefaultWindow = 64 * 1024
	// HeaderSize is the modeled TCP/IP header per packet; it reduces the
	// payload per MTU-sized frame.
	HeaderSize = 40
	// MTUSmall is the default Ethernet MTU of the evaluation.
	MTUSmall = 1500
	// MTULarge is the evaluation's large MTU: "a large MTU size of 16K
	// bytes".
	MTULarge = 16 * 1024
)

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("netstack: connection closed")

// Stack is the machine's network stack configuration.
type Stack struct {
	K *kernel.Kernel
	// MTU is the link maximum transmission unit.
	MTU int
	// ChecksumOffload moves TCP checksumming to the NIC; when false the
	// CPU computes checksums in software, touching every payload byte
	// through its ephemeral mapping (this is the knob of Figures 19-20).
	ChecksumOffload bool
	// contig is the zero-copy send path's contiguity-policy handle,
	// resolved once at stack creation so the per-syscall send path pays
	// no registry lookup.
	contig *kernel.MapConsumer
}

// NewStack returns a stack with the given MTU on kernel k.
func NewStack(k *kernel.Kernel, mtu int) *Stack {
	if mtu <= HeaderSize {
		panic(fmt.Sprintf("netstack: mtu %d too small", mtu))
	}
	return &Stack{K: k, MTU: mtu, contig: k.Consumer("netstack")}
}

// MSS returns the payload bytes per packet.
func (st *Stack) MSS() int { return st.MTU - HeaderSize }

// Stats counts connection activity.
type Stats struct {
	PacketsSent   uint64
	BytesSent     uint64
	PacketsRecved uint64
	BytesRecved   uint64
	PageFlips     uint64
	RxCopies      uint64
}

// rxPage is a driver-owned receive page awaiting zero-copy receive.
type rxPage struct {
	page *vm.Page
	buf  *sfbuf.Buf
	n    int
}

// Conn is one simplex connection: a sender on this machine and a receiver
// that is either another socket on this machine (loopback) or an external
// sink.
type Conn struct {
	st *Stack

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	// rcvq holds transmitted, unacknowledged packets.  For loopback the
	// receiver consumes them (acknowledging as it goes); for a sink the
	// sender drains them past the window.  A packet's external storage —
	// its sf_bufs and page wirings — is released when the packet is
	// acknowledged.
	rcvq      []*mbuf.Chain
	rcvqBytes int
	headOff   int // consumed bytes of rcvq[0]

	window int
	sink   bool
	zcRx   bool

	// rxq holds driver receive pages for the zero-copy receive path.
	rxq []rxPage

	// sw sizes the connection's windowed-send mapping windows from the
	// observed ACK cadence (see kernel.SendWindow); inert — the
	// historical fixed size — on non-adaptive kernels.
	sw *kernel.SendWindow

	closed bool
	stats  Stats
}

// NewConn creates a loopback connection.
func (st *Stack) NewConn() *Conn { return st.newConn(false, false) }

// NewSinkConn creates a connection whose receiver is an external client:
// packets are acknowledged as the window slides, with no receive-side CPU
// charge on this machine.
func (st *Stack) NewSinkConn() *Conn { return st.newConn(true, false) }

// NewZeroCopyRxConn creates a loopback connection whose receive path uses
// driver-injected pages and page flipping.  The stack's MSS must fit one
// driver page (the NIC DMAs each frame into one page); larger MTUs panic,
// since they would silently truncate.
func (st *Stack) NewZeroCopyRxConn() *Conn {
	if st.MSS() > vm.PageSize {
		panic(fmt.Sprintf("netstack: zero-copy receive needs MSS <= %d, MTU %d gives %d",
			vm.PageSize, st.MTU, st.MSS()))
	}
	return st.newConn(false, true)
}

func (st *Stack) newConn(sink, zcRx bool) *Conn {
	c := &Conn{st: st, window: DefaultWindow, sink: sink, zcRx: zcRx,
		sw: st.contig.SendWindow()}
	c.notFull = sync.NewCond(&c.mu)
	c.notEmpty = sync.NewCond(&c.mu)
	return c
}

// SendWindow exposes the connection's mapping-window policy handle; the
// windowed sendfile path sizes its per-window page runs through it.
func (c *Conn) SendWindow() *kernel.SendWindow { return c.sw }

// SendWindowPages is the pages the connection's next mapping window
// should cover.
func (c *Conn) SendWindowPages() int { return c.sw.WindowPages() }

// SetWindow adjusts the send window (tests).
func (c *Conn) SetWindow(n int) {
	c.mu.Lock()
	c.window = n
	c.mu.Unlock()
}

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close releases all pending packets and wakes waiters.
func (c *Conn) Close(ctx *smp.Context) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	q := c.rcvq
	rx := c.rxq
	c.rcvq, c.rcvqBytes, c.rxq = nil, 0, nil
	c.notFull.Broadcast()
	c.notEmpty.Broadcast()
	c.mu.Unlock()
	for _, pkt := range q {
		pkt.Free(ctx)
	}
	for _, r := range rx {
		c.st.K.Map.Free(ctx, r.buf)
		c.st.K.M.Phys.Free(r.page)
	}
}

// SendZeroCopy transmits n bytes at off from the caller's user buffer
// without copying: each page is wired and attached to an mbuf under a
// shared ephemeral mapping (any CPU may retransmit it), segmented to the
// MTU, checksummed in software unless offload is enabled, and released
// only on acknowledgment.
//
// Pages are wired and mapped as packets are built rather than all
// upfront, so the number of simultaneously live ephemeral mappings is
// bounded by the send window plus one packet — large sends cannot
// deadlock a small mapping cache.  A page straddling a packet boundary is
// wired and mapped once per packet referencing it; the mapping cache
// coalesces the two allocations onto one sf_buf.
func (c *Conn) SendZeroCopy(ctx *smp.Context, um *vm.UserMem, off, n int) error {
	if n < 0 || off < 0 || off+n > um.Len() {
		return vm.ErrBounds
	}
	ctx.Charge(ctx.Cost().Syscall)
	if c.st.K.WindowedSend() {
		return c.sendZeroCopyWindowed(ctx, um, off, n)
	}
	k := c.st.K
	mss := c.st.MSS()

	pkt := &mbuf.Chain{}
	flush := func() error {
		if pkt.PktLen == 0 {
			return nil
		}
		ctx.Charge(ctx.Cost().PacketFixed)
		if !c.st.ChecksumOffload {
			if err := c.checksumPacket(ctx, pkt); err != nil {
				pkt.Free(ctx)
				return err
			}
		}
		if err := c.transmit(ctx, pkt); err != nil {
			pkt.Free(ctx)
			return err
		}
		pkt = &mbuf.Chain{}
		return nil
	}

	cur, remaining := off, n
	for remaining > 0 {
		pg, po, err := um.PageAt(cur)
		if err != nil {
			pkt.Free(ctx)
			return err
		}
		take := min(vm.PageSize-po, remaining)
		take = min(take, mss-pkt.PktLen)
		pg.Wire()
		ctx.Charge(ctx.Cost().PageWire)
		b, err := k.Map.Alloc(ctx, pg, 0) // shared: no Private flag
		if err != nil {
			pg.Unwire()
			pkt.Free(ctx)
			return fmt.Errorf("netstack: mapping send page: %w", err)
		}
		page := pg
		ext := mbuf.NewExt(b, pg, func(fctx *smp.Context) {
			k.Map.Free(fctx, b)
			page.Unwire()
		})
		pkt.Append(mbuf.NewExtMbuf(ext, po, take))
		cur += take
		remaining -= take
		if pkt.PktLen >= mss {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// sendZeroCopyWindowed is the windowed packetize/wire/map/transmit loop:
// each packet's pages are mapped as one send extent through the zero-copy
// consumer.  Packet boundaries, wire counts and checksum behaviour are
// identical across all send variants; only the mapping step differs.
func (c *Conn) sendZeroCopyWindowed(ctx *smp.Context, um *vm.UserMem, off, n int) error {
	k := c.st.K
	mss := c.st.MSS()
	cur, remaining := off, n
	for remaining > 0 {
		pktBytes := min(mss, remaining)
		// Resolve and wire the run of pages carrying this packet.
		var (
			pages []*vm.Page
			pos   []int
			lens  []int
		)
		for b := 0; b < pktBytes; {
			pg, po, err := um.PageAt(cur + b)
			if err != nil {
				for _, p := range pages {
					p.Unwire()
				}
				return err
			}
			take := min(vm.PageSize-po, pktBytes-b)
			pg.Wire()
			ctx.Charge(ctx.Cost().PageWire)
			pages = append(pages, pg)
			pos = append(pos, po)
			lens = append(lens, take)
			b += take
		}
		pkt := &mbuf.Chain{}
		ext, err := c.st.contig.MapSendExtent(ctx, pages)
		if errors.Is(err, sfbuf.ErrBatchTooLarge) {
			// Packet run exceeds the whole mapping cache (pathologically
			// tiny cache): map its pages one at a time instead.
			for j, pg := range pages {
				b, err := k.Map.Alloc(ctx, pg, 0)
				if err != nil {
					for _, rest := range pages[j:] {
						rest.Unwire()
					}
					pkt.Free(ctx)
					return fmt.Errorf("netstack: mapping send page: %w", err)
				}
				buf, page := b, pg
				ext := mbuf.NewExt(b, pg, func(fctx *smp.Context) {
					k.Map.Free(fctx, buf)
					page.Unwire()
				})
				pkt.Append(mbuf.NewExtMbuf(ext, pos[j], lens[j]))
			}
		} else if err != nil {
			for _, p := range pages {
				p.Unwire()
			}
			return fmt.Errorf("netstack: window-mapping send run: %w", err)
		} else {
			unref := ext.Release()
			for j, b := range ext.Bufs() {
				pkt.Append(mbuf.NewExtMbuf(mbuf.NewExt(b, pages[j], unref), pos[j], lens[j]))
			}
		}
		ctx.Charge(ctx.Cost().PacketFixed)
		if !c.st.ChecksumOffload {
			if err := c.checksumPacket(ctx, pkt); err != nil {
				pkt.Free(ctx)
				return err
			}
		}
		if err := c.transmit(ctx, pkt); err != nil {
			pkt.Free(ctx)
			return err
		}
		cur += pktBytes
		remaining -= pktBytes
	}
	return nil
}

// SendChain transmits a prepared chain (the sendfile path).  Ownership of
// the chain and its references passes to the connection.
func (c *Conn) SendChain(ctx *smp.Context, chain *mbuf.Chain) error {
	return c.sendChain(ctx, chain)
}

// sendChain segments, checksums and enqueues; it blocks while the window
// is full (loopback) or self-acks past the window (sink).
func (c *Conn) sendChain(ctx *smp.Context, chain *mbuf.Chain) error {
	mss := c.st.MSS()
	for chain.PktLen > 0 {
		pkt := chain.Split(min(mss, chain.PktLen))
		if pkt == nil {
			break
		}
		ctx.Charge(ctx.Cost().PacketFixed)
		if !c.st.ChecksumOffload {
			if err := c.checksumPacket(ctx, pkt); err != nil {
				pkt.Free(ctx)
				chain.Free(ctx)
				return err
			}
		}
		if err := c.transmit(ctx, pkt); err != nil {
			pkt.Free(ctx)
			chain.Free(ctx)
			return err
		}
	}
	return nil
}

// checksumPacket runs the software TCP checksum over a packet's payload,
// reading every byte through its ephemeral mapping and thereby setting the
// mappings' PTE accessed bits — the effect Figures 19-20 isolate.
//
// On kernels whose send path maps packets into contiguous run windows
// (Plan.Runs), consecutive mbufs over one window are virtually adjacent;
// the checksum sweeps each such span with kcopy.ChecksumRun — ONE ranged
// translate per span instead of one walk per page, the same economy the
// run path already gives the copies.  The figure-reproduction kernels
// never take the run send path, so they keep the historical per-mbuf
// Checksum loop byte-for-byte (a single-page span goes through Checksum
// unchanged either way).
func (c *Conn) checksumPacket(ctx *smp.Context, pkt *mbuf.Chain) error {
	return c.st.checksumChain(ctx, pkt)
}

// checksumChain is the shared software-checksum sweep, used by both the
// socket paths above and the virtual-internet serving path (vserve.go).
func (st *Stack) checksumChain(ctx *smp.Context, pkt *mbuf.Chain) error {
	if !st.K.Plan.Runs {
		for m := pkt.Head; m != nil; m = m.Next {
			if m.Ext != nil {
				if _, err := kcopy.Checksum(ctx, st.K.Pmap, m.KVA(), m.Len); err != nil {
					return err
				}
			} else {
				ctx.ChargeBytes(ctx.Cost().ChecksumPerByte, m.Len)
			}
		}
		return nil
	}
	var spanKVA uint64
	spanLen := 0
	flush := func() error {
		if spanLen == 0 {
			return nil
		}
		var err error
		if pmap.PageOffset(spanKVA)+spanLen > vm.PageSize {
			_, err = kcopy.ChecksumRun(ctx, st.K.Pmap, spanKVA, spanLen)
		} else {
			// A span inside one page gains nothing from a ranged walk;
			// keep the single-page path and its exact cost shape.
			_, err = kcopy.Checksum(ctx, st.K.Pmap, spanKVA, spanLen)
		}
		spanLen = 0
		return err
	}
	for m := pkt.Head; m != nil; m = m.Next {
		if m.Ext == nil {
			if err := flush(); err != nil {
				return err
			}
			ctx.ChargeBytes(ctx.Cost().ChecksumPerByte, m.Len)
			continue
		}
		if spanLen > 0 && m.KVA() == spanKVA+uint64(spanLen) {
			spanLen += m.Len
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		spanKVA, spanLen = m.KVA(), m.Len
	}
	return flush()
}

// transmit places a packet on the receive queue, enforcing the window.
func (c *Conn) transmit(ctx *smp.Context, pkt *mbuf.Chain) error {
	c.mu.Lock()
	if c.sink {
		// External receiver: slide the window from the sender's side,
		// acknowledging (and releasing) the oldest packets.
		c.rcvq = append(c.rcvq, pkt)
		c.rcvqBytes += pkt.PktLen
		var acked []*mbuf.Chain
		for c.rcvqBytes > c.window && len(c.rcvq) > 1 {
			old := c.rcvq[0]
			c.rcvq = c.rcvq[1:]
			c.rcvqBytes -= old.PktLen
			acked = append(acked, old)
		}
		c.stats.PacketsSent++
		c.stats.BytesSent += uint64(pkt.PktLen)
		inflight := c.rcvqBytes
		c.mu.Unlock()
		// Returning acknowledgments are processed on the sending CPU:
		// ack parsing plus the release of the covered mbufs and their
		// ephemeral mappings.
		ctx.Charge(ctx.Cost().AckProcess * cycles.Cycles(len(acked)))
		ackedBytes := 0
		for _, a := range acked {
			ackedBytes += a.PktLen
			a.Free(ctx)
		}
		c.sw.ObserveAck(ackedBytes, inflight)
		return nil
	}
	for c.rcvqBytes+pkt.PktLen > c.window && !c.closed && c.rcvqBytes > 0 {
		c.notFull.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.zcRx {
		c.stats.PacketsSent++
		c.stats.BytesSent += uint64(pkt.PktLen)
		c.mu.Unlock()
		return c.driverInject(ctx, pkt)
	}
	c.rcvq = append(c.rcvq, pkt)
	c.rcvqBytes += pkt.PktLen
	c.stats.PacketsSent++
	c.stats.BytesSent += uint64(pkt.PktLen)
	c.notEmpty.Signal()
	c.mu.Unlock()
	return nil
}

// Recv copies received payload into dst, blocking for at least one packet.
// Consumed packets are acknowledged: their chains are freed, releasing
// ephemeral mappings and page wirings, and the sender window reopens.
func (c *Conn) Recv(ctx *smp.Context, dst []byte) (int, error) {
	ctx.Charge(ctx.Cost().Syscall)
	c.mu.Lock()
	for len(c.rcvq) == 0 && !c.closed {
		c.notEmpty.Wait()
	}
	if len(c.rcvq) == 0 && c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}

	read := 0
	var done []*mbuf.Chain
	for read < len(dst) && len(c.rcvq) > 0 {
		pkt := c.rcvq[0]
		// Walk to the current offset within the packet.
		skip := c.headOff
		m := pkt.Head
		for m != nil && skip >= m.Len {
			skip -= m.Len
			m = m.Next
		}
		if m == nil {
			// Packet exhausted.
			c.rcvq = c.rcvq[1:]
			c.rcvqBytes -= pkt.PktLen
			c.headOff = 0
			done = append(done, pkt)
			continue
		}
		take := min(m.Len-skip, len(dst)-read)
		c.mu.Unlock()
		var err error
		if m.Ext != nil {
			err = kcopy.CopyOut(ctx, c.st.K.Pmap, dst[read:read+take], m.KVA()+uint64(skip))
		} else {
			copy(dst[read:read+take], m.InlineBytes()[skip:skip+take])
			ctx.ChargeBytes(ctx.Cost().CopyPerByte, take)
		}
		c.mu.Lock()
		if err != nil {
			c.mu.Unlock()
			return read, err
		}
		read += take
		c.headOff += take
		if c.headOff >= pkt.PktLen {
			c.rcvq = c.rcvq[1:]
			c.rcvqBytes -= pkt.PktLen
			c.headOff = 0
			done = append(done, pkt)
		}
	}
	c.stats.PacketsRecved += uint64(len(done))
	c.stats.BytesRecved += uint64(read)
	inflight := c.rcvqBytes
	c.notFull.Broadcast()
	c.mu.Unlock()
	// Each fully consumed packet pays tcp_input-side processing, then is
	// acknowledged: freed outside the lock (sf_buf frees take the mapper
	// lock), releasing its ephemeral mappings and page wirings.
	ctx.Charge(ctx.Cost().PacketRecv * cycles.Cycles(len(done)))
	ackedBytes := 0
	for _, pkt := range done {
		ackedBytes += pkt.PktLen
		pkt.Free(ctx)
	}
	c.sw.ObserveAck(ackedBytes, inflight)
	return read, nil
}

// driverInject implements the zero-copy receive driver step: "the kernel
// allocates a physical page, creates an ephemeral mapping to it, and
// injects the physical page and its ephemeral mapping into the network
// stack at the device driver".  The loopback "DMA" copies the packet
// payload into the driver page, after which the packet is acknowledged.
func (c *Conn) driverInject(ctx *smp.Context, pkt *mbuf.Chain) error {
	k := c.st.K
	pg, err := k.M.Phys.Alloc()
	if err != nil {
		return fmt.Errorf("netstack: rx page: %w", err)
	}
	b, err := k.Map.Alloc(ctx, pg, 0) // shared, like all network mappings
	if err != nil {
		k.M.Phys.Free(pg)
		return err
	}
	off := 0
	for m := pkt.Head; m != nil; m = m.Next {
		if off+m.Len > vm.PageSize {
			break // driver pages are page-sized; netperf MSS <= page in zcRx tests
		}
		if m.Ext != nil {
			// Model DMA as a mapped copy charged to the driver CPU.
			buf := make([]byte, m.Len)
			if err := kcopy.CopyOut(ctx, k.Pmap, buf, m.KVA()); err != nil {
				k.Map.Free(ctx, b)
				k.M.Phys.Free(pg)
				return err
			}
			if err := kcopy.CopyIn(ctx, k.Pmap, b.KVA()+uint64(off), buf); err != nil {
				k.Map.Free(ctx, b)
				k.M.Phys.Free(pg)
				return err
			}
		} else {
			if err := kcopy.CopyIn(ctx, k.Pmap, b.KVA()+uint64(off), m.InlineBytes()); err != nil {
				k.Map.Free(ctx, b)
				k.M.Phys.Free(pg)
				return err
			}
		}
		off += m.Len
	}
	pkt.Free(ctx) // loopback: the sender side is acknowledged immediately
	c.mu.Lock()
	c.rxq = append(c.rxq, rxPage{page: pg, buf: b, n: off})
	c.notEmpty.Signal()
	c.mu.Unlock()
	return nil
}

// RecvZeroCopy receives one driver page into the user buffer at off.  When
// the destination is page-aligned and the payload fills the page, the
// kernel's page replaces the application's (a page flip) and the mapping
// is destroyed without any copy; otherwise the data is copied through the
// mapping.  Returns the payload length.
func (c *Conn) RecvZeroCopy(ctx *smp.Context, um *vm.UserMem, off int) (int, error) {
	ctx.Charge(ctx.Cost().Syscall)
	c.mu.Lock()
	for len(c.rxq) == 0 && !c.closed {
		c.notEmpty.Wait()
	}
	if len(c.rxq) == 0 && c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	r := c.rxq[0]
	c.rxq = c.rxq[1:]
	aligned := off%vm.PageSize == 0 && r.n == vm.PageSize && off+vm.PageSize <= um.Len()
	if aligned {
		c.stats.PageFlips++
	} else {
		c.stats.RxCopies++
	}
	c.mu.Unlock()

	k := c.st.K
	if aligned {
		// "the application's current physical page is freed, the
		// kernel's physical page replaces it in the application's
		// address space, and the ephemeral mapping is destroyed."
		old, err := um.ReplacePage(off/vm.PageSize, r.page)
		if err != nil {
			return 0, err
		}
		k.M.Phys.Free(old)
		k.Map.Free(ctx, r.buf)
		return r.n, nil
	}
	// "Otherwise, the ephemeral mapping is used by the kernel to copy the
	// data from its physical page to the application's."
	buf := make([]byte, r.n)
	if err := kcopy.CopyOut(ctx, k.Pmap, buf, r.buf.KVA()); err != nil {
		return 0, err
	}
	if err := um.WriteAt(off, buf); err != nil {
		return 0, err
	}
	k.Map.Free(ctx, r.buf)
	k.M.Phys.Free(r.page)
	return r.n, nil
}
