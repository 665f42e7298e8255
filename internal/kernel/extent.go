package kernel

import (
	"sync/atomic"

	"sfbuf/internal/kcopy"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Extent is one multi-page window mapped through a consumer handle: a
// contiguous run or a vectored batch, whichever the handle chose, copied
// through and released as a unit.  Subsystems never name the path; they
// map with MapConsumer.MapExtent (or a send-side variant), copy with
// CopyIn/CopyOut, and release with Unmap — or, for send extents whose
// pages ride separate mbufs, with one Unref per page.
type Extent struct {
	k    *Kernel
	run  *sfbuf.Run
	bufs []*sfbuf.Buf
	// rec is a send extent's release state, nil on extents from
	// MapExtent; copies of an Extent share it.  gen is the record's
	// generation when this window was mapped: the record is recycled
	// once the window's last reference drops.
	rec *sendRecord
	gen uint32
}

// sendRecord is one send extent's release state, recycled through its
// consumer's free list so a window allocates none of it: the outstanding
// page references, the record's own copy of the page list (the caller's
// slice is free for its next window once the map returns), the mapping,
// and the release hook, bound once per record.  gen counts the record's
// windows, so a stale Extent copy is caught before it touches a newer one.
type sendRecord struct {
	c       *MapConsumer
	refs    atomic.Int32
	gen     uint32
	pages   []*vm.Page
	mapping Extent
	release func(*smp.Context)
}

// MapExtent maps a multi-page extent by this consumer's policy: UseRuns
// observes the extent once and picks a contiguous run, else a vectored
// batch where the engine batches natively (Plan.Batch).  Otherwise — and
// whenever the chosen call finds the extent wider than the mapping cache
// — it returns sfbuf.ErrBatchTooLarge, meaning "map page by page"; the
// other multi-page path is never retried.
func (c *MapConsumer) MapExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags) (Extent, error) {
	return c.mapExtent(ctx, pages, flags, c.k.Plan.Batch)
}

// MapSendExtent maps one send-side window: MapExtent's rule with the send
// paths' batching switch (Plan.BatchSend), shared mappings (any CPU may
// retransmit), and one reference per page for the mbufs that carry them.
// It is the one window mapper behind both sendfile and zero-copy socket
// sends, so their mapping economies cannot drift apart.
func (c *MapConsumer) MapSendExtent(ctx *smp.Context, pages []*vm.Page) (Extent, error) {
	return c.mapSendExtent(ctx, pages, 0)
}

// mapSendExtent is MapSendExtent with allocation flags — the serving loop
// maps with sfbuf.NoWait through SendWindow.MapExtent so mapping pressure
// surfaces as ErrWouldBlock instead of a sleep.
func (c *MapConsumer) mapSendExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags) (Extent, error) {
	e, err := c.mapExtent(ctx, pages, flags, c.k.Plan.BatchSend)
	if err != nil {
		return e, err
	}
	c.sendMu.Lock()
	var r *sendRecord
	if n := len(c.sendFree); n > 0 {
		r = c.sendFree[n-1]
		c.sendFree[n-1] = nil
		c.sendFree = c.sendFree[:n-1]
	}
	c.sendMu.Unlock()
	if r == nil {
		r = &sendRecord{c: c}
		r.release = r.unref
	}
	r.mapping = e
	r.pages = append(r.pages[:0], pages...)
	r.refs.Store(int32(len(pages)))
	e.rec, e.gen = r, r.gen
	return e, nil
}

func (c *MapConsumer) mapExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags, batch bool) (Extent, error) {
	e := Extent{k: c.k}
	var err error
	switch {
	case c.UseRuns(ctx, pages):
		e.run, err = c.k.Map.AllocRun(ctx, pages, flags)
	case batch:
		e.bufs, err = c.k.Map.AllocBatch(ctx, pages, flags)
	default:
		err = sfbuf.ErrBatchTooLarge
	}
	if err != nil {
		return Extent{}, err
	}
	return e, nil
}

// WindowedSend reports whether the send paths (sendfile, zero-copy socket
// send) map their pages in MapSendExtent windows rather than one mapping
// per page — the historical path the original kernel's baselines measure.
func (k *Kernel) WindowedSend() bool { return k.Plan.Runs || k.Plan.BatchSend }

// Mapped reports whether the extent holds a mapping (the zero Extent and
// a failed MapExtent's do not).
func (e Extent) Mapped() bool { return e.run != nil || e.bufs != nil }

// Bufs returns one Buf per page, for consumers that attach pages to
// longer-lived structures (mbuf externals).  A run's are views built on
// first use; they must not be freed individually.
func (e Extent) Bufs() []*sfbuf.Buf {
	if e.run != nil {
		return e.run.Bufs()
	}
	return e.bufs
}

// CopyIn copies src into the extent at byte offset off.
func (e Extent) CopyIn(ctx *smp.Context, off int, src []byte) error {
	if e.run != nil {
		return kcopy.CopyInRun(ctx, e.k.Pmap, e.run, off, src)
	}
	return kcopy.CopyInVec(ctx, e.k.Pmap, e.bufs, off, src)
}

// CopyOut copies from the extent at byte offset off into dst.
func (e Extent) CopyOut(ctx *smp.Context, dst []byte, off int) error {
	if e.run != nil {
		return kcopy.CopyOutRun(ctx, e.k.Pmap, dst, e.run, off)
	}
	return kcopy.CopyOutVec(ctx, e.k.Pmap, dst, e.bufs, off)
}

// Unmap releases the whole extent: one FreeRun or one FreeBatch.
func (e Extent) Unmap(ctx *smp.Context) {
	if e.run != nil {
		e.k.Map.FreeRun(ctx, e.run)
	} else {
		e.k.Map.FreeBatch(ctx, e.bufs)
	}
}

// Unref drops one of a send extent's page references; the last one
// unmaps the extent, unwires its pages and recycles its release record.
// An Unref through a copy of an extent whose record has since been
// recycled panics.
func (e Extent) Unref(ctx *smp.Context) {
	if e.gen != e.rec.gen {
		panic("kernel: send extent released after its window was recycled")
	}
	e.rec.unref(ctx)
}

// Release returns a send extent's release hook: Unref with the mbuf
// external free hook's signature, bound once per record, so attaching it
// as each page's release allocates nothing.
func (e Extent) Release() func(*smp.Context) { return e.rec.release }

func (r *sendRecord) unref(ctx *smp.Context) {
	n := r.refs.Add(-1)
	if n < 0 {
		panic("kernel: send extent reference underflow")
	}
	if n > 0 {
		return
	}
	r.mapping.Unmap(ctx)
	for _, pg := range r.pages {
		pg.Unwire()
	}
	clear(r.pages)
	r.pages, r.mapping = r.pages[:0], Extent{}
	r.gen++
	c := r.c
	c.sendMu.Lock()
	c.sendFree = append(c.sendFree, r)
	c.sendMu.Unlock()
}

// Drop releases n references without an mbuf free — the unwind path when
// an extent was mapped but some of its pages never made it onto a chain.
func (e Extent) Drop(ctx *smp.Context, n int) {
	for ; n > 0; n-- {
		e.Unref(ctx)
	}
}
