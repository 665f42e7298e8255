// Package pipe implements Unix pipes with FreeBSD's two data paths
// (Section 2.1):
//
//   - Small writes copy twice: writer into a statically mapped kernel
//     buffer, reader out of it.  No ephemeral mappings are involved.
//   - Large writes that would fill the pipe take the direct path: the
//     writer determines the physical pages underlying its source buffer,
//     wires them, and publishes the set through the pipe object.  The
//     reader maps each page with a CPU-private ephemeral mapping, copies
//     the data to its destination buffer, destroys the mapping, and
//     unwires the page.  One copy instead of two — at the price of one
//     ephemeral mapping per page per transfer, which is exactly the cost
//     the sf_buf interface attacks.
//
// The pipe is parameterized by the kernel's Mapper, so the same code runs
// under the sf_buf kernel and the original kernel.
package pipe

import (
	"errors"
	"fmt"
	"sync"

	"sfbuf/internal/kernel"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

const (
	// BufferSize is the in-kernel pipe buffer for the double-copy path
	// (FreeBSD's PIPE_SIZE).
	BufferSize = 16 * 1024
	// MinDirect is the smallest write eligible for the direct page-loan
	// path (FreeBSD's PIPE_MINDIRECT).
	MinDirect = 8 * 1024
)

// ErrClosed is returned for operations on a closed pipe end.
var ErrClosed = errors.New("pipe: closed")

// directWindow is a published run of wired writer pages awaiting the
// reader.
type directWindow struct {
	pages    []*vm.Page
	off      int  // read position, a byte offset from the start of pages[0]
	n        int  // bytes remaining
	consumed bool // reader drained the window completely

	// ext maps the whole window — a contiguous run, a vectored batch or
	// a per-page extent, the pipe consumer's decision, made once on the
	// first read (mapped).
	ext    kernel.Extent
	mapped bool
}

// Pipe is one unidirectional pipe.
type Pipe struct {
	k *kernel.Kernel
	// contig is the pipe subsystem's contiguity-policy handle: under the
	// adaptive policy it learns from the loaned windows' observed reuse
	// whether to map them as runs or batches.
	contig *kernel.MapConsumer

	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond

	// Double-copy path state: a byte ring over the static kernel buffer.
	ring  []byte
	rpos  int
	wpos  int
	count int

	// Direct path state.  FreeBSD allows one direct window at a time;
	// the writer blocks until the reader drains it.
	direct *directWindow

	closed bool

	stats Stats
}

// Stats counts pipe activity.
type Stats struct {
	DirectWrites uint64
	BufferWrites uint64
	BytesMoved   uint64
}

// New creates a pipe on kernel k.
func New(k *kernel.Kernel) *Pipe {
	p := &Pipe{k: k, contig: k.Consumer("pipe"), ring: make([]byte, BufferSize)}
	p.notEmpty = sync.NewCond(&p.mu)
	p.notFull = sync.NewCond(&p.mu)
	return p
}

// Close wakes all waiters and marks the pipe closed.  Pending direct
// windows are abandoned (their pages unwired).
func (p *Pipe) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.direct != nil {
		// Tear down the unconsumed window.  Its mapping is released on
		// CPU 0's behalf (process teardown).
		p.direct.ext.Unmap(p.k.Ctx(0))
		p.direct.ext = kernel.Extent{}
		for _, pg := range p.direct.pages {
			pg.Unwire()
		}
		p.direct.pages = nil
		p.direct = nil
	}
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
}

// Stats returns a copy of the pipe counters.
func (p *Pipe) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Write sends n bytes starting at off within the writer's user buffer.
// Large writes use the direct page-loan path; small ones are copied into
// the kernel buffer.  Write blocks until the data has been handed to the
// pipe (for direct writes, until the reader consumed the window, which is
// the "fill the pipe and block the writer" behaviour the paper describes).
func (p *Pipe) Write(ctx *smp.Context, um *vm.UserMem, off, n int) error {
	if n < 0 || off < 0 || off+n > um.Len() {
		return vm.ErrBounds
	}
	ctx.Charge(ctx.Cost().Syscall)
	if n >= MinDirect {
		return p.writeDirect(ctx, um, off, n)
	}
	return p.writeBuffered(ctx, um, off, n)
}

func (p *Pipe) writeBuffered(ctx *smp.Context, um *vm.UserMem, off, n int) error {
	// Copy from the user buffer into the kernel ring.  The ring lives in
	// permanently mapped kernel memory, so the copy costs bandwidth but
	// no mapping work.
	remaining := n
	for remaining > 0 {
		p.mu.Lock()
		for p.count == BufferSize && !p.closed {
			p.notFull.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return ErrClosed
		}
		chunk := min(remaining, BufferSize-p.count)
		p.mu.Unlock()

		// Move the bytes outside the lock; the single-writer invariant
		// makes wpos stable.
		buf := make([]byte, chunk)
		if err := um.ReadAt(off+(n-remaining), buf); err != nil {
			return err
		}
		ctx.ChargeBytes(ctx.Cost().CopyPerByte, chunk)

		p.mu.Lock()
		for _, b := range buf {
			p.ring[p.wpos] = b
			p.wpos = (p.wpos + 1) % BufferSize
		}
		p.count += chunk
		p.stats.BufferWrites++
		p.stats.BytesMoved += uint64(chunk)
		p.notEmpty.Signal()
		p.mu.Unlock()
		remaining -= chunk
	}
	return nil
}

func (p *Pipe) writeDirect(ctx *smp.Context, um *vm.UserMem, off, n int) error {
	// "The writer first determines the set of physical pages underlying
	// the source buffer, then wires each of these physical pages ..."
	pages, err := um.PageRange(off, n)
	if err != nil {
		return err
	}
	if err := um.Wire(off, n); err != nil {
		return err
	}
	for range pages {
		ctx.Charge(ctx.Cost().PageWire)
	}

	p.mu.Lock()
	for p.direct != nil && !p.closed {
		p.notFull.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		um.Unwire(off, n)
		return ErrClosed
	}
	// "... and finally passes the set to the receiver through the object
	// implementing the pipe."
	w := &directWindow{
		pages: append([]*vm.Page(nil), pages...),
		off:   off % vm.PageSize,
		n:     n,
	}
	p.direct = w
	p.stats.DirectWrites++
	p.stats.BytesMoved += uint64(n)
	p.notEmpty.Signal()
	// Block until the reader has fully consumed the window: a direct
	// write by definition filled the pipe.
	for !w.consumed && !p.closed {
		p.notFull.Wait()
	}
	consumed := w.consumed
	p.mu.Unlock()
	if !consumed {
		return ErrClosed
	}
	return nil
}

// Read fills dst from the pipe, returning the byte count.  It blocks until
// at least one byte is available or the pipe closes (then io-style: 0,
// ErrClosed).
func (p *Pipe) Read(ctx *smp.Context, dst []byte) (int, error) {
	ctx.Charge(ctx.Cost().Syscall)
	p.mu.Lock()
	for p.count == 0 && p.direct == nil && !p.closed {
		p.notEmpty.Wait()
	}
	if p.count == 0 && p.direct == nil && p.closed {
		p.mu.Unlock()
		return 0, ErrClosed
	}

	// Buffered bytes first (FIFO order between the two paths is
	// preserved because a writer never starts a direct window while
	// buffered bytes it wrote remain unread in this simulator's
	// single-writer usage).
	if p.count > 0 {
		chunk := min(len(dst), p.count)
		for i := 0; i < chunk; i++ {
			dst[i] = p.ring[p.rpos]
			p.rpos = (p.rpos + 1) % BufferSize
		}
		p.count -= chunk
		p.notFull.Signal()
		p.mu.Unlock()
		ctx.ChargeBytes(ctx.Cost().CopyPerByte, chunk)
		return chunk, nil
	}

	w := p.direct
	p.mu.Unlock()
	return p.readDirect(ctx, w, dst)
}

// readDirect copies the next bytes of a loaned window.  The first read
// maps the whole window through the pipe's consumer handle, which decides
// how: as ONE contiguous run (a single VA window installed in one
// page-table pass, read under ranged translation so copies cross page
// boundaries without re-translating) on kernels whose mapper provides
// runs, as one vectored batch where the mapper merely batches (the
// original kernel's per-pipe KVA window + pmap_qenter, the sharded
// cache's per-shard batching, the amd64 direct map's free casts) — static
// under a pinned Contig policy, learned from observed window reuse under
// the adaptive one.  The paper's global-lock kernel, and a window larger
// than the whole mapping cache, get a per-page extent: "for each physical
// page, it creates an ephemeral mapping that is private to the current
// CPU ... copies the data ... [and] destroys the ephemeral mapping"
// (Section 2.1).  A drained window is unmapped whole — one FreeRun, whose
// shootdown debt launders with other runs', or one FreeBatch — and its
// pages unwired.
//
// A run or a batch is SHARED, not Private: unlike a per-page mapping,
// which lives and dies inside one copy on one CPU, the window persists
// across Read calls, and a reader that migrates CPUs between reads would
// otherwise fill a TLB the private teardown mask never shoots down.
func (p *Pipe) readDirect(ctx *smp.Context, w *directWindow, dst []byte) (int, error) {
	if !w.mapped {
		ext, err := p.contig.MapExtent(ctx, w.pages, 0, sfbuf.Private)
		if err != nil {
			return 0, fmt.Errorf("pipe: mapping loaned window: %w", err)
		}
		w.ext, w.mapped = ext, true
	}
	read := min(len(dst), w.n)
	if read > 0 {
		if err := w.ext.CopyOut(ctx, dst[:read], w.off); err != nil {
			return 0, err
		}
		w.off += read
		w.n -= read
	}
	if w.n == 0 {
		p.finishWindow(ctx, w)
	}
	return read, nil
}

// finishWindow releases a drained window — unmaps it and unwires its
// pages — marks it consumed and wakes the writer.
func (p *Pipe) finishWindow(ctx *smp.Context, w *directWindow) {
	w.ext.Unmap(ctx)
	w.ext = kernel.Extent{}
	for _, pg := range w.pages {
		pg.Unwire()
		ctx.Charge(ctx.Cost().PageWire)
	}
	w.pages = nil
	p.mu.Lock()
	w.consumed = true
	if p.direct == w {
		p.direct = nil
	}
	p.notFull.Broadcast()
	p.mu.Unlock()
}
