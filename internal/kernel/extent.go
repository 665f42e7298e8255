package kernel

import (
	"fmt"
	"sync/atomic"

	"sfbuf/internal/kcopy"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// Extent is one window of pages mapped through a consumer handle: a
// contiguous run, a vectored batch, or a per-page extent, whichever the
// handle chose, copied through and released as a unit.  A per-page extent
// holds no mapping: each copy maps the pages it touches one at a time,
// the paper's Alloc/copy/Free sequence, and Unmap has nothing to release.
// Subsystems never name the path; they map with MapConsumer.MapExtent (or
// a send-side variant), copy with CopyIn/CopyOut, and release with Unmap
// — or, for send extents whose pages ride separate mbufs, take each page
// with Take and release it through its own hook.  A per-page send extent
// maps each page only when it is taken.
type Extent struct {
	k    *Kernel
	run  *sfbuf.Run
	bufs []*sfbuf.Buf
	// pages are the extent's pages and flags the flags a per-page
	// extent maps each of them with.
	pages []*vm.Page
	flags sfbuf.Flags
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
// and the release hook, bound once per record.  A per-page window has no
// mapping; it keeps the pages taken so far.  gen counts the record's
// windows, so a stale Extent copy is caught before it touches a newer
// one.
type sendRecord struct {
	c       *MapConsumer
	refs    atomic.Int32
	gen     uint32
	pages   []*vm.Page
	mapping Extent
	release func(*smp.Context)
	taken   []*sfbuf.Buf
}

// MapExtent maps an extent by this consumer's policy: UseRuns observes a
// multi-page extent once and picks a contiguous run, else a vectored
// batch where the engine batches natively (Plan.Batch).  Otherwise — for
// one page, which never consults the policy, and whenever the chosen call
// finds the extent wider than the mapping cache — it returns a per-page
// extent whose copies map each page with pageFlags; the other multi-page
// path is never retried.  flags map a run or a batch, which may outlive
// one call and one CPU; pageFlags map a page for the length of one copy.
func (c *MapConsumer) MapExtent(ctx *smp.Context, pages []*vm.Page, flags, pageFlags sfbuf.Flags) (Extent, error) {
	if len(pages) == 1 {
		return Extent{k: c.k, pages: pages, flags: pageFlags}, nil
	}
	return c.mapExtent(ctx, pages, flags, pageFlags, c.k.Plan.Batch)
}

// MapSendExtent maps one send-side window of wired pages: MapExtent's
// rule with the send paths' batching switch (Plan.BatchSend), shared
// mappings (any CPU may retransmit), and one reference per page for the
// mbufs that carry them.  Its per-page window maps page j only when the
// consumer takes it, and each page carries its own release.  It is the
// one window mapper behind sendfile, zero-copy socket sends and the
// serving loop, so their mapping economies cannot drift apart.
func (c *MapConsumer) MapSendExtent(ctx *smp.Context, pages []*vm.Page) (Extent, error) {
	return c.mapSendExtent(ctx, pages, 0)
}

// mapSendExtent is MapSendExtent with allocation flags — the serving loop
// maps with sfbuf.NoWait through SendWindow.MapExtent so mapping pressure
// surfaces as ErrWouldBlock instead of a sleep.
func (c *MapConsumer) mapSendExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags) (Extent, error) {
	e, err := c.mapExtent(ctx, pages, flags, flags, c.k.Plan.BatchSend)
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
	r.pages = append(r.pages[:0], pages...)
	r.refs.Store(int32(len(pages)))
	e.pages, e.rec, e.gen = r.pages, r, r.gen
	r.mapping = e
	return e, nil
}

func (c *MapConsumer) mapExtent(ctx *smp.Context, pages []*vm.Page, flags, pageFlags sfbuf.Flags, batch bool) (Extent, error) {
	e := Extent{k: c.k, pages: pages, flags: pageFlags}
	var err error
	switch {
	case c.UseRuns(ctx, pages):
		e.run, err = c.k.Map.AllocRun(ctx, pages, flags)
	case batch:
		e.bufs, err = c.k.Map.AllocBatch(ctx, pages, flags)
	}
	if err != nil && err != sfbuf.ErrBatchTooLarge {
		return Extent{}, err
	}
	return e, nil
}

// WindowedSend reports whether send extents can map multi-page windows
// (a run or a batch); where it is false every send extent is a per-page
// window.  Its one caller sizes sendfile's windows: there, a window of
// one page keeps the order in which the historical per-page path
// resolved a file page and mapped it.  File metadata reads map through
// the same cache, so resolving pages a window ahead would reorder its
// LRU.
func (k *Kernel) WindowedSend() bool { return k.Plan.Runs || k.Plan.BatchSend }

// Mapped reports whether the extent holds a mapping: a run or a batch
// does; a per-page extent, the zero Extent and a failed MapExtent's do
// not.
func (e Extent) Mapped() bool { return e.run != nil || e.bufs != nil }

// CopyIn copies src into the extent at byte offset off.
func (e Extent) CopyIn(ctx *smp.Context, off int, src []byte) error {
	switch {
	case e.run != nil:
		return kcopy.CopyInRun(ctx, e.k.Pmap, e.run, off, src)
	case e.bufs != nil:
		return kcopy.CopyInVec(ctx, e.k.Pmap, e.bufs, off, src)
	}
	return e.copyPages(ctx, off, src, true)
}

// CopyOut copies from the extent at byte offset off into dst.
func (e Extent) CopyOut(ctx *smp.Context, dst []byte, off int) error {
	switch {
	case e.run != nil:
		return kcopy.CopyOutRun(ctx, e.k.Pmap, dst, e.run, off)
	case e.bufs != nil:
		return kcopy.CopyOutVec(ctx, e.k.Pmap, dst, e.bufs, off)
	}
	return e.copyPages(ctx, off, dst, false)
}

// copyPages is a per-page extent's copy: each page it touches, in order,
// is mapped with the extent's flags, copied through its own KVA, and
// unmapped.
func (e Extent) copyPages(ctx *smp.Context, off int, buf []byte, in bool) error {
	for len(buf) > 0 {
		po := off % vm.PageSize
		n := min(vm.PageSize-po, len(buf))
		b, err := e.k.Map.Alloc(ctx, e.pages[off/vm.PageSize], e.flags)
		if err != nil {
			return fmt.Errorf("kernel: mapping extent page %d: %w", off/vm.PageSize, err)
		}
		if in {
			err = kcopy.CopyIn(ctx, e.k.Pmap, b.KVA()+uint64(po), buf[:n])
		} else {
			err = kcopy.CopyOut(ctx, e.k.Pmap, buf[:n], b.KVA()+uint64(po))
		}
		e.k.Map.Free(ctx, b)
		if err != nil {
			return err
		}
		buf, off = buf[n:], off+n
	}
	return nil
}

// Unmap releases the whole extent: one FreeRun or one FreeBatch.  A
// per-page extent, and the zero Extent, hold nothing to release.
func (e Extent) Unmap(ctx *smp.Context) {
	switch {
	case e.run != nil:
		e.k.Map.FreeRun(ctx, e.run)
	case e.bufs != nil:
		e.k.Map.FreeBatch(ctx, e.bufs)
	}
}

// Take returns page j of a send extent, mapping it first on a per-page
// window.  A per-page window's pages are taken in order; a failed take
// (ErrWouldBlock under NoWait) leaves page j untaken.
func (e Extent) Take(ctx *smp.Context, j int) (*sfbuf.Buf, error) {
	r := e.record()
	switch {
	case e.run != nil:
		return e.run.View(j), nil
	case e.bufs != nil:
		return e.bufs[j], nil
	}
	if j != len(r.taken) {
		panic("kernel: per-page send extent taken out of order")
	}
	b, err := e.k.Map.Alloc(ctx, e.pages[j], e.flags)
	if err != nil {
		return nil, err
	}
	r.taken = append(r.taken, b)
	return b, nil
}

// Release returns the hook that releases taken page j, with the mbuf
// external free hook's signature.  A mapped window's pages share one
// hook, bound once per record, that drops one window reference; the last
// unmaps the window and unwires its pages.  A per-page window's hook
// unmaps and unwires its own page.
func (e Extent) Release(j int) func(*smp.Context) {
	r := e.record()
	if e.Mapped() {
		return r.release
	}
	k, b, pg := e.k, r.taken[j], r.pages[j]
	return func(ctx *smp.Context) {
		k.Map.Free(ctx, b)
		pg.Unwire()
		r.unref(ctx)
	}
}

// Drop releases the references of the window's last n pages, which were
// never taken onto a chain — the unwind after a failed send.  On a
// per-page window it unwires those pages too.  The last reference of a
// mapped window unmaps it and unwires its pages.  A Drop through a copy
// of an extent whose record has since been recycled panics.
func (e Extent) Drop(ctx *smp.Context, n int) {
	r := e.record()
	if !e.Mapped() {
		for _, pg := range r.pages[len(r.pages)-n:] {
			pg.Unwire()
		}
	}
	for ; n > 0; n-- {
		r.unref(ctx)
	}
}

// Rollback undoes a per-page window none of whose pages has been
// released: it unmaps the pages taken so far and recycles the record,
// leaving every page wired and the caller's again — the unwind when a
// NoWait take fails and the caller retries the window later.  (A mapped
// window's takes cannot fail.)
func (e Extent) Rollback(ctx *smp.Context) {
	r := e.record()
	for _, b := range r.taken {
		e.k.Map.Free(ctx, b)
	}
	r.recycle()
}

func (e Extent) record() *sendRecord {
	if e.gen != e.rec.gen {
		panic("kernel: send extent released after its window was recycled")
	}
	return e.rec
}

func (r *sendRecord) unref(ctx *smp.Context) {
	n := r.refs.Add(-1)
	if n < 0 {
		panic("kernel: send extent reference underflow")
	}
	if n > 0 {
		return
	}
	if r.mapping.Mapped() {
		r.mapping.Unmap(ctx)
		for _, pg := range r.pages {
			pg.Unwire()
		}
	}
	r.recycle()
}

// recycle returns the record to its consumer's free list under a new
// generation.
func (r *sendRecord) recycle() {
	clear(r.pages)
	clear(r.taken)
	r.pages, r.taken, r.mapping = r.pages[:0], r.taken[:0], Extent{}
	r.gen++
	c := r.c
	c.sendMu.Lock()
	c.sendFree = append(c.sendFree, r)
	c.sendMu.Unlock()
}
