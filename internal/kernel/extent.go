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
	k     *Kernel
	pages []*vm.Page
	run   *sfbuf.Run
	bufs  []*sfbuf.Buf
	// refs counts a send extent's outstanding page references; nil on
	// extents from MapExtent.  Copies of an Extent share it.
	refs *atomic.Int32
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
	if err == nil {
		e.refs = new(atomic.Int32)
		e.refs.Store(int32(len(pages)))
	}
	return e, err
}

func (c *MapConsumer) mapExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags, batch bool) (Extent, error) {
	e := Extent{k: c.k, pages: pages}
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
// unmaps the extent and unwires its pages.  It has the mbuf external
// free hook's signature, so it is attached as each page's release.
func (e Extent) Unref(ctx *smp.Context) {
	n := e.refs.Add(-1)
	if n < 0 {
		panic("kernel: send extent reference underflow")
	}
	if n > 0 {
		return
	}
	e.Unmap(ctx)
	for _, pg := range e.pages {
		pg.Unwire()
	}
}

// Drop releases n references without an mbuf free — the unwind path when
// an extent was mapped but some of its pages never made it onto a chain.
func (e Extent) Drop(ctx *smp.Context, n int) {
	for ; n > 0; n-- {
		e.Unref(ctx)
	}
}
