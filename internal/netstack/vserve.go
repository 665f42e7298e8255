package netstack

// Virtual-internet serving: a TCP-ish server endpoint (VConn) and client
// endpoint (VClient) exchanging metadata packets through internal/vnet's
// lossy, reordering, delaying links.  This is the macro-benchmark's
// protocol layer — the machinery that turns the kernel's ephemeral
// mapping economy into end-to-end serving behaviour:
//
//   - Send windows are ACK-clocked: a VConn transmits only what the
//     client's advertised window admits, so slow readers (small drains,
//     shrinking windows) keep few pages in flight while fast clients
//     stream a full bandwidth-delay product.
//
//   - Mapping windows are sized per connection by kernel.SendWindow:
//     each ACK feeds the connection's observed burst and backlog into
//     the policy, and the next window of file or user pages is mapped
//     as one send extent sized to the connection's measured appetite.
//
//   - Mappings are mapped with sfbuf.NoWait: the event loop is single
//     threaded (see the vnet package comment), so a sleeping allocation
//     would deadlock it.  Cache pressure surfaces as ErrWouldBlock, a
//     deterministic backoff timer, and a latency hit the percentile
//     metrics must see — exactly how an overcommitted mapping cache
//     hurts a real server.
//
//   - Retransmission reuses the retained mappings: a lost packet is
//     re-checksummed through the same ephemeral mapping and re-sent,
//     the paper's reason send-side mappings are shared rather than
//     CPU-private.  Releases stay ACK-driven: the cumulative ACK
//     covering a segment frees its chain, unrefs its pages, and the
//     window's last reference unmaps the whole extent.
//
//   - Teardown is exactly-once: aborting a connection mid-send (churn)
//     frees the transmitted-unacknowledged queue and the staged-but-
//     unsent queue once, and late ACKs or timers arriving after the
//     abort are ignored rather than double-freeing.
//
// Latency accounting: a request's mapping latency is the simulated CPU
// cycles spent in its map and release calls (including failed NoWait
// attempts) plus the virtual time spent backing off on mapping stalls.
// Network propagation time is deliberately excluded — the metric
// isolates what mapping management adds to a request, which is the
// quantity the paper's design is trying to drive to zero.

import (
	"fmt"

	"sfbuf/internal/cycles"
	"sfbuf/internal/kcopy"
	"sfbuf/internal/kernel"
	"sfbuf/internal/mbuf"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
	"sfbuf/internal/vnet"
)

// VRequest is one request a VConn serves: Size bytes resolved page by
// page through PageAt (a file via fs.FilePage, a user buffer via
// vm.UserMem — the conn does not care which).  After completion the
// accounting fields report the request's mapping economy.
type VRequest struct {
	// Size is the response length in bytes.
	Size int64
	// PageAt resolves the request's pi-th page.
	PageAt func(ctx *smp.Context, pi int) (*vm.Page, error)

	// MapCycles accumulates CPU cycles spent mapping and releasing the
	// request's pages, including failed NoWait attempts.
	MapCycles cycles.Cycles
	// StallWait accumulates virtual time spent backing off on mapping
	// stalls; Stalls counts them.
	StallWait int64
	Stalls    int

	startSeq  int64
	endSeq    int64
	completed bool
}

// MapLatency is the request's headline metric: mapping CPU cycles plus
// stall backoff, in simulated cycles.
func (r *VRequest) MapLatency() int64 { return int64(r.MapCycles) + r.StallWait }

// VServeStats aggregates server-side serving activity.
type VServeStats struct {
	PacketsSent uint64
	BytesSent   uint64
	Retransmits uint64
	FastRetrans uint64
	Probes      uint64
	AcksRecved  uint64
	// Stalls counts mapping windows that hit ErrWouldBlock and backed
	// off; Fallbacks counts windows routed through the per-page path.
	Stalls    uint64
	Fallbacks uint64
	// Completed counts fully acknowledged requests; Aborted counts
	// connections torn down mid-send.
	Completed uint64
	Aborted   uint64
}

// VServer is the shared serving state: one per simulated server stack.
type VServer struct {
	St  *Stack
	Net *vnet.Net
	// RTO is the retransmission timeout, RetryDelay the mapping-stall
	// backoff, ProbeDelay the zero-window probe interval (virtual
	// cycles).
	RTO        int64
	RetryDelay int64
	ProbeDelay int64
	// OnComplete, when set, observes every completed request.
	OnComplete func(c *VConn, r *VRequest)

	stats VServeStats

	// Released segments and externals wait here for the next window,
	// which takes them in place of new ones: the server's short-lived
	// network objects get reusable homes, and both lists stay at the peak
	// number in flight.  exts is mapWindow's result, valid until its next
	// call.
	segFree []*vseg
	extFree []*mbuf.Ext
	exts    []*mbuf.Ext
}

// NewVServer wires a serving endpoint over the stack and network with
// conventional timer defaults (callers may tune the fields before
// traffic flows).
func NewVServer(st *Stack, net *vnet.Net) *VServer {
	return &VServer{
		St:         st,
		Net:        net,
		RTO:        8_000_000, // ~a few RTTs at the default link delays
		RetryDelay: 50_000,
		ProbeDelay: 2_000_000,
	}
}

// Stats returns a copy of the aggregated serving counters.
func (srv *VServer) Stats() VServeStats { return srv.stats }

// fifo is a head-indexed queue.  Popping advances head and zeroes the
// slot it leaves, so nothing popped stays reachable from the backing
// array, which is reused once the queue drains and compacted, not
// regrown, when it fills with the popped prefix at least half of it.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) front() T { return q.items[q.head] }

// live returns the queued items in order; valid until the next push or pop.
func (q *fifo[T]) live() []T { return q.items[q.head:] }

func (q *fifo[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// vseg is one staged or transmitted-unacknowledged segment.  Its packet
// is one mbuf, held by value: chain.Head points at m.
type vseg struct {
	seq    int64
	length int
	chain  mbuf.Chain
	m      mbuf.Mbuf
	req    *VRequest
	// summed marks a segment whose software checksum was computed at
	// staging time, over the whole mapped window; its first transmission
	// skips the per-segment sweep.  Retransmissions always re-checksum.
	summed bool
}

// VConn is the server side of one connection: a byte stream of queued
// requests, ACK-clocked against the peer's advertised window, with its
// own adaptive mapping-window handle.
type VConn struct {
	srv  *VServer
	id   int
	ctx  *smp.Context
	link *vnet.Link
	sw   *kernel.SendWindow

	sndUna   int64
	sndNxt   int64
	stageSeq int64 // next staged byte (sndNxt + staged backlog)
	rwnd     int

	queue   fifo[*VRequest] // not yet staged
	cur     *VRequest       // request currently being staged
	curOff  int64
	pending []*vm.Page  // resolved+wired window awaiting a stalled mapping
	pageBuf []*vm.Page  // backs pending and the window being mapped
	staged  fifo[*vseg] // mapped, packetized, awaiting window
	rtq     fifo[*vseg] // transmitted, unacknowledged, seq order

	dupAcks    int
	rtoArmed   bool
	probeArmed bool
	retryArmed bool
	closed     bool
	// rtoUna is sndUna when the pending RTO was armed (at most one is).
	rtoUna int64
	// The timer callbacks, bound once so arming one allocates nothing.
	onRTO, onRetry, onProbe func()

	// err records the first hard serving failure (anything but a stall).
	err error
}

// NewVConn creates the server side of connection id, pinned to ctx's
// CPU, transmitting on link, with mapping windows sized by sw.
func (srv *VServer) NewVConn(id int, ctx *smp.Context, link *vnet.Link, sw *kernel.SendWindow) *VConn {
	c := &VConn{srv: srv, id: id, ctx: ctx, link: link, sw: sw, rwnd: DefaultWindow}
	c.onRTO, c.onRetry, c.onProbe = c.rtoFired, c.retryFired, c.probeFired
	return c
}

// Err returns the connection's first hard failure, if any.
func (c *VConn) Err() error { return c.err }

// Closed reports whether the connection was aborted.
func (c *VConn) Closed() bool { return c.closed }

// Enqueue queues a request and starts serving it as the window allows.
func (c *VConn) Enqueue(r *VRequest) {
	if c.closed {
		return
	}
	c.queue.push(r)
	c.pump()
}

// effWindow is the peer-advertised send budget in bytes.
func (c *VConn) effWindow() int { return c.rwnd }

// pump transmits staged segments while the window admits them, staging
// (mapping) more as needed.  It is the connection's one state-machine
// entry point: called on enqueue, on every ACK, and from backoff/probe
// timers.
func (c *VConn) pump() {
	if c.closed || c.err != nil {
		return
	}
	for {
		inflight := int(c.sndNxt - c.sndUna)
		if c.staged.len() == 0 {
			if inflight > 0 && inflight >= c.effWindow() {
				return // window full: ACKs will re-pump
			}
			if !c.stageWindow() {
				return // nothing to stage, or stalled on a mapping
			}
		}
		s := c.staged.front()
		if inflight > 0 && inflight+s.length > c.effWindow() {
			return
		}
		if inflight == 0 && c.effWindow() == 0 {
			c.armProbe()
			return
		}
		c.staged.pop()
		c.transmit(s, false)
	}
}

// stageWindow maps the current request's next window of pages and cuts
// it into MSS segments.  Returns false when there is nothing to stage or
// the mapping stalled (a retry timer is then armed).
func (c *VConn) stageWindow() bool {
	if c.cur == nil {
		if c.queue.len() == 0 {
			return false
		}
		c.cur = c.queue.pop()
		c.curOff = 0
		c.cur.startSeq = c.stageSeq
		c.cur.endSeq = c.stageSeq + c.cur.Size
		// Accept/parse/log/socket work outside data movement.
		c.ctx.Charge(c.ctx.Cost().HTTPRequestFixed)
	}
	req := c.cur
	remaining := req.Size - c.curOff
	// A window stalled on a mapping stays resolved and wired on the
	// connection across retries — like a sleeping sendfile, and the only
	// affordable shape: re-resolving dozens of pages per backoff tick
	// across a thousand starved connections is a livelock.
	pages := c.pending
	if pages != nil {
		// The policy may have shrunk the window since the stall (its
		// multiplicative decrease); retry the smaller window and give the
		// tail's wiring back rather than keep demanding a grant the cache
		// already refused.
		if w := c.sw.WindowPages(); len(pages) > w {
			for _, pg := range pages[w:] {
				pg.Unwire()
			}
			pages = pages[:w]
			c.pending = pages
		}
	}
	if pages == nil {
		npages := int((remaining + vm.PageSize - 1) / vm.PageSize)
		if w := c.sw.WindowPages(); npages > w {
			npages = w
		}
		basePi := int(c.curOff / vm.PageSize)
		// The send extent keeps its own copy of the page list, so one
		// buffer serves every window of the connection.
		pages = c.pageBuf[:0]
		for j := 0; j < npages; j++ {
			pg, err := req.PageAt(c.ctx, basePi+j)
			if err != nil {
				for _, p := range pages {
					p.Unwire()
				}
				c.fail(fmt.Errorf("vserve conn %d: resolving page %d: %w", c.id, basePi+j, err))
				return false
			}
			pg.Wire()
			c.ctx.Charge(c.ctx.Cost().PageWire)
			pages = append(pages, pg)
		}
		c.pageBuf = pages
	}

	// Map the window under the connection's policy.  NoWait: stalls back
	// off on a timer instead of sleeping the event loop.  mapWindow never
	// leaves partial mappings behind on failure; the pages' wiring stays
	// ours until the mappings exist (their release hooks then own it).
	before := c.ctx.CPU().Cycles()
	exts, err := c.mapWindow(pages)
	req.MapCycles += c.ctx.CPU().Cycles() - before
	if err != nil {
		if err == sfbuf.ErrWouldBlock {
			c.pending = pages
			c.sw.ObserveStall()
			req.Stalls++
			req.StallWait += c.srv.RetryDelay
			c.srv.stats.Stalls++
			c.armRetry()
			return false
		}
		for _, p := range pages {
			p.Unwire()
		}
		c.fail(fmt.Errorf("vserve conn %d: mapping window: %w", c.id, err))
		return false
	}
	c.pending = nil

	// Cut the window into MSS segments.  Packets never span pages (the
	// historical sendfile packetization); a page spanning packets shares
	// one Ext, each extra segment taking a reference.
	mss := c.srv.St.MSS()
	for j, ext := range exts {
		po := 0
		pbytes := int(min(int64(vm.PageSize), remaining-int64(j)*vm.PageSize))
		for po < pbytes {
			take := pbytes - po
			if take > mss {
				take = mss
			}
			if po > 0 {
				ext.Ref()
			}
			c.staged.push(c.srv.newSeg(c.stageSeq, ext, po, take, req))
			c.stageSeq += int64(take)
			po += take
		}
	}
	// Software checksums are computed once per staged window, while the
	// mapping is hot: a contiguous run window coalesces into one ranged
	// page-table walk (kcopy.ChecksumRun), a batching economy scattered
	// per-page mappings cannot express.  Retransmissions re-checksum per
	// segment through the same held mapping.
	if !c.srv.St.ChecksumOffload {
		if err := c.checksumWindow(exts, int(min(int64(len(pages))*vm.PageSize, remaining))); err != nil {
			c.fail(fmt.Errorf("vserve conn %d: window checksum: %w", c.id, err))
			return false
		}
	}
	c.curOff += min(int64(len(pages))*vm.PageSize, remaining)
	if c.curOff >= req.Size {
		c.cur = nil
	}
	return true
}

// checksumWindow sweeps one freshly mapped window's valid bytes.  Under
// the batched send path, adjacent pages mapped at consecutive kernel
// addresses form spans checksummed with one ranged walk; everywhere else
// (and for the per-page engines, whose addresses scatter) each page pays
// its own translation, the same cost shape as Stack.checksumChain.
func (c *VConn) checksumWindow(exts []*mbuf.Ext, winBytes int) error {
	pm := c.srv.St.K.Pmap
	ranged := c.srv.St.K.Plan.Runs
	var spanKVA uint64
	spanLen := 0
	flush := func() error {
		if spanLen == 0 {
			return nil
		}
		var err error
		if spanLen > vm.PageSize {
			_, err = kcopy.ChecksumRun(c.ctx, pm, spanKVA, spanLen)
		} else {
			_, err = kcopy.Checksum(c.ctx, pm, spanKVA, spanLen)
		}
		spanLen = 0
		return err
	}
	for j, ext := range exts {
		pb := winBytes - j*vm.PageSize
		if pb <= 0 {
			break
		}
		if pb > vm.PageSize {
			pb = vm.PageSize
		}
		kva := ext.Buf.KVA()
		if ranged && spanLen > 0 && kva == spanKVA+uint64(spanLen) {
			spanLen += pb
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		spanKVA, spanLen = kva, pb
	}
	return flush()
}

// mapWindow maps one wired page window, returning one Ext per page whose
// release unrefs the shared window state (which unwires on the last
// reference).  The per-page fallback covers engines without a batched
// send path (and pathologically tiny caches), still under NoWait.  On
// error mapWindow has rolled back every mapping it made and made NONE of
// the exts, but the pages stay wired: the caller keeps the wiring across
// stall retries and unwires only on hard failure or abort.
func (c *VConn) mapWindow(pages []*vm.Page) ([]*mbuf.Ext, error) {
	k := c.srv.St.K
	ext, err := c.sw.MapExtent(c.ctx, pages, sfbuf.NoWait)
	exts := c.srv.exts[:0]
	if err == nil {
		unref := ext.Release() // bound once per release record
		for j, b := range ext.Bufs() {
			exts = append(exts, c.srv.newExt(b, pages[j], unref))
		}
		c.srv.exts = exts
		return exts, nil
	}
	if err != sfbuf.ErrBatchTooLarge {
		return nil, err
	}
	// Per-page path: each page is its own mapping with its own release
	// hook, which owns that page's unwire once every page mapped.
	c.srv.stats.Fallbacks++
	ppBufs := make([]*sfbuf.Buf, 0, len(pages))
	for _, pg := range pages {
		b, err := k.Map.Alloc(c.ctx, pg, sfbuf.NoWait)
		if err != nil {
			for _, prev := range ppBufs {
				k.Map.Free(c.ctx, prev)
			}
			return nil, err
		}
		ppBufs = append(ppBufs, b)
	}
	for j := range pages {
		buf, page := ppBufs[j], pages[j]
		exts = append(exts, c.srv.newExt(buf, page, func(fctx *smp.Context) {
			k.Map.Free(fctx, buf)
			page.Unwire()
		}))
	}
	c.srv.exts = exts
	return exts, nil
}

// take pops a recycled object off a free list; nil when none is waiting.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

// newExt returns external storage for one mapped page, recycled when a
// released one is waiting.
func (srv *VServer) newExt(buf *sfbuf.Buf, page *vm.Page, free func(*smp.Context)) *mbuf.Ext {
	e := take(&srv.extFree)
	if e == nil {
		return mbuf.NewExt(buf, page, free)
	}
	e.Reset(buf, page, free)
	return e
}

// newSeg returns a staged segment over ext's bytes [off, off+n), recycled
// when a released one is waiting.  The caller owns the ext reference the
// segment's mbuf will drop.
func (srv *VServer) newSeg(seq int64, ext *mbuf.Ext, off, n int, req *VRequest) *vseg {
	s := take(&srv.segFree)
	if s == nil {
		s = new(vseg)
	}
	s.seq, s.length, s.req, s.summed = seq, n, req, !srv.St.ChecksumOffload
	s.m.SetExt(ext, off, n)
	s.chain.Append(&s.m)
	return s
}

// freeSeg drops a segment's reference on its page and recycles the
// segment, and the page's external storage with it if that reference was
// the last.  The event loop is single-threaded and the server's
// externals are referenced only by its segments, so a count of zero here
// is final.
func (srv *VServer) freeSeg(ctx *smp.Context, s *vseg) {
	ext := s.m.Ext
	s.chain.Free(ctx)
	if ext.Refs() == 0 {
		ext.Buf, ext.Page = nil, nil
		srv.extFree = append(srv.extFree, ext)
	}
	s.m, s.req = mbuf.Mbuf{}, nil
	srv.segFree = append(srv.segFree, s)
}

// transmit checksums (software path) and sends one segment, arming the
// retransmission timer.
func (c *VConn) transmit(s *vseg, retrans bool) {
	c.ctx.Charge(c.ctx.Cost().PacketFixed)
	if !c.srv.St.ChecksumOffload && (retrans || !s.summed) {
		if err := c.srv.St.checksumChain(c.ctx, &s.chain); err != nil {
			c.fail(fmt.Errorf("vserve conn %d: checksum: %w", c.id, err))
			return
		}
	}
	c.srv.stats.PacketsSent++
	c.srv.stats.BytesSent += uint64(s.length)
	if !retrans {
		c.rtq.push(s)
		if end := s.seq + int64(s.length); end > c.sndNxt {
			c.sndNxt = end
		}
	}
	c.link.Send(vnet.Packet{Flow: c.id, Seq: s.seq, Len: s.length})
	c.armRTO()
}

// HandleAck processes one client acknowledgment: advance the window,
// release covered segments (the ACK-driven mapping release), feed the
// send-window policy, detect duplicate-ACK retransmission, and pump.
func (c *VConn) HandleAck(p vnet.Packet) {
	if c.closed || c.err != nil {
		return // late ACK after abort: state is gone, ignore
	}
	c.ctx.Charge(c.ctx.Cost().AckProcess)
	c.srv.stats.AcksRecved++
	prevWnd := c.rwnd
	c.rwnd = p.Win
	switch {
	case p.Ack > c.sndUna:
		acked := int(p.Ack - c.sndUna)
		c.sndUna = p.Ack
		c.dupAcks = 0
		c.releaseCovered()
		c.sw.ObserveAck(acked, int(c.sndNxt-c.sndUna))
	case p.Ack == c.sndUna && p.Win == prevWnd && c.rtq.len() > 0 && p.Flags&vnet.FlagAck != 0:
		// A true duplicate — same ack, same window — signals a hole at
		// the receiver; a changed window is just a window update.
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit: resend the first unacknowledged segment
			// through its retained mapping.
			c.srv.stats.Retransmits++
			c.srv.stats.FastRetrans++
			c.transmit(c.rtq.front(), true)
		}
	}
	c.pump()
}

// releaseCovered frees every fully acknowledged segment, attributing the
// release cycles to the owning request and completing requests whose
// last byte is covered.
func (c *VConn) releaseCovered() {
	for c.rtq.len() > 0 {
		s := c.rtq.front()
		if s.seq+int64(s.length) > c.sndUna {
			break
		}
		c.rtq.pop()
		req := s.req
		before := c.ctx.CPU().Cycles()
		c.srv.freeSeg(c.ctx, s)
		req.MapCycles += c.ctx.CPU().Cycles() - before
		if !req.completed && c.sndUna >= req.endSeq {
			req.completed = true
			c.srv.stats.Completed++
			if c.srv.OnComplete != nil {
				c.srv.OnComplete(c, req)
			}
		}
	}
}

// Abort tears the connection down mid-send: every transmitted-but-
// unacknowledged and staged-but-unsent segment is released exactly once,
// unwinding send-extent references so the windows' unmaps fire
// and the ledger balances.  Idempotent; late ACKs and timers observe
// closed and do nothing.
func (c *VConn) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.srv.stats.Aborted++
	rtq, staged, pending := c.rtq, c.staged, c.pending
	c.rtq, c.staged, c.queue, c.cur, c.pending = fifo[*vseg]{}, fifo[*vseg]{}, fifo[*VRequest]{}, nil, nil
	for _, s := range rtq.live() {
		c.srv.freeSeg(c.ctx, s)
	}
	for _, s := range staged.live() {
		c.srv.freeSeg(c.ctx, s)
	}
	for _, pg := range pending {
		pg.Unwire()
	}
}

// fail records a hard error and releases everything, like Abort but
// preserving the error for the driver.
func (c *VConn) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.Abort()
}

func (c *VConn) armRTO() {
	if c.rtoArmed || c.closed || c.rtq.len() == 0 {
		return
	}
	c.rtoArmed = true
	c.rtoUna = c.sndUna
	c.srv.Net.After(c.srv.RTO, c.onRTO)
}

func (c *VConn) rtoFired() {
	c.rtoArmed = false
	if c.closed || c.err != nil || c.rtq.len() == 0 {
		return
	}
	if c.sndUna == c.rtoUna {
		// No progress for a full RTO: retransmit the first hole.
		c.srv.stats.Retransmits++
		c.transmit(c.rtq.front(), true)
	}
	c.armRTO()
}

func (c *VConn) armRetry() {
	if c.retryArmed || c.closed {
		return
	}
	c.retryArmed = true
	c.srv.Net.After(c.srv.RetryDelay, c.onRetry)
}

func (c *VConn) retryFired() {
	c.retryArmed = false
	if c.closed {
		return
	}
	c.pump()
}

func (c *VConn) armProbe() {
	if c.probeArmed || c.closed {
		return
	}
	c.probeArmed = true
	c.srv.Net.After(c.srv.ProbeDelay, c.onProbe)
}

func (c *VConn) probeFired() {
	c.probeArmed = false
	if c.closed || c.err != nil {
		return
	}
	if c.effWindow() == 0 && c.sndNxt == c.sndUna && (c.staged.len() > 0 || c.cur != nil || c.queue.len() > 0) {
		// Zero window, nothing in flight, more to send: probe for a
		// fresh window advertisement (the update may have been lost).
		c.srv.stats.Probes++
		c.link.Send(vnet.Packet{Flow: c.id, Flags: vnet.FlagProbe})
		c.armProbe()
		return
	}
	c.pump()
}

// VClientStats counts client-side observations.
type VClientStats struct {
	BytesRecved int64
	DupSegs     uint64
	OOOQueued   uint64
	AcksSent    uint64
}

// VClient is the receiving end of one connection on a different machine:
// it reassembles the byte stream, acknowledges cumulatively, and drains
// its receive buffer at a configurable rate — the slow-reader knob.  It
// charges nothing to the server machine's CPUs, like the sink endpoints.
type VClient struct {
	net  *vnet.Net
	id   int
	link *vnet.Link // acks toward the server

	rcvNxt   int64
	bufCap   int
	buffered int
	// drainBytes per drainEvery cycles models the application read rate.
	drainBytes int
	drainEvery int64
	ooo        []vnet.Packet // out-of-order segments, seq-sorted
	drainArmed bool
	closed     bool
	onDrain    func() // the drain timer's callback, bound once
	stats      VClientStats
}

// NewVClient creates the client side of connection id: acks flow back on
// link, the receive buffer holds bufCap bytes, and the application reads
// drainBytes every drainEvery cycles.
func NewVClient(net *vnet.Net, id int, link *vnet.Link, bufCap, drainBytes int, drainEvery int64) *VClient {
	cl := &VClient{net: net, id: id, link: link, bufCap: bufCap,
		drainBytes: drainBytes, drainEvery: drainEvery}
	cl.onDrain = cl.drainFired
	return cl
}

// Stats returns a copy of the client counters.
func (cl *VClient) Stats() VClientStats { return cl.stats }

// Close stops the client: further deliveries are ignored and no more
// ACKs flow, as when the remote application vanishes mid-transfer.
func (cl *VClient) Close() { cl.closed = true }

// window is the advertised receive window.
func (cl *VClient) window() int {
	w := cl.bufCap - cl.buffered
	if w < 0 {
		w = 0
	}
	return w
}

// HandleData processes one delivered data packet (or probe).
func (cl *VClient) HandleData(p vnet.Packet) {
	if cl.closed {
		return
	}
	if p.Flags&vnet.FlagProbe != 0 {
		cl.sendAck()
		return
	}
	end := p.Seq + int64(p.Len)
	switch {
	case end <= cl.rcvNxt:
		// Entirely old: a retransmission that crossed our ACK.
		cl.stats.DupSegs++
		cl.sendAck()
		return
	case p.Seq > cl.rcvNxt:
		// Hole before this segment: queue it, duplicate-ACK the hole.
		if cl.insertOOO(p) {
			cl.stats.OOOQueued++
		}
		cl.sendAck()
		return
	}
	cl.advance(end)
	// Pull any queued segments the advance made contiguous, then close
	// the gap they leave so the queue keeps its backing array.
	pulled := 0
	for pulled < len(cl.ooo) && cl.ooo[pulled].Seq <= cl.rcvNxt {
		oend := cl.ooo[pulled].Seq + int64(cl.ooo[pulled].Len)
		pulled++
		if oend > cl.rcvNxt {
			cl.advance(oend)
		}
	}
	if pulled > 0 {
		cl.ooo = cl.ooo[:copy(cl.ooo, cl.ooo[pulled:])]
	}
	cl.sendAck()
	cl.armDrain()
}

func (cl *VClient) advance(end int64) {
	n := end - cl.rcvNxt
	cl.rcvNxt = end
	cl.buffered += int(n)
	cl.stats.BytesRecved += n
}

// insertOOO queues an out-of-order segment in seq order, reporting
// whether it was queued: a segment whose seq is already queued is not.
func (cl *VClient) insertOOO(p vnet.Packet) bool {
	i := len(cl.ooo)
	for i > 0 && cl.ooo[i-1].Seq > p.Seq {
		i--
	}
	// Now ooo[i-1].Seq <= p.Seq < ooo[i].Seq: only ooo[i-1] can match.
	if i > 0 && cl.ooo[i-1].Seq == p.Seq {
		return false
	}
	cl.ooo = append(cl.ooo, vnet.Packet{})
	copy(cl.ooo[i+1:], cl.ooo[i:])
	cl.ooo[i] = p
	return true
}

func (cl *VClient) sendAck() {
	cl.stats.AcksSent++
	cl.link.Send(vnet.Packet{Flow: cl.id, Ack: cl.rcvNxt, Win: cl.window(), Flags: vnet.FlagAck})
}

// armDrain schedules the application's next read while data is buffered.
// Every drain re-advertises the window, which is both the window-update
// path that reopens a stalled sender and the ACK clock for slow readers.
func (cl *VClient) armDrain() {
	if cl.drainArmed || cl.closed || cl.buffered == 0 {
		return
	}
	cl.drainArmed = true
	cl.net.After(cl.drainEvery, cl.onDrain)
}

func (cl *VClient) drainFired() {
	cl.drainArmed = false
	if cl.closed {
		return
	}
	d := cl.drainBytes
	if d > cl.buffered {
		d = cl.buffered
	}
	if d > 0 {
		cl.buffered -= d
		cl.sendAck()
	}
	cl.armDrain()
}
