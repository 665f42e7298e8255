// Package sendfile implements the zero-copy sendfile(2) path of
// Section 2.3: the pages of a file are wired, mapped with shared ephemeral
// mappings (any CPU may retransmit them), attached to an mbuf chain and
// handed to the socket; the mappings persist until the chain is freed by
// acknowledgment.
package sendfile

import (
	"errors"
	"fmt"

	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/mbuf"
	"sfbuf/internal/netstack"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// VectoredRun is the historical fixed cap on how many file pages one
// window maps ahead of transmission on the windowed path.  It is now
// the DEFAULT window only: each connection carries a kernel.SendWindow
// that sizes windows from the connection's observed ACK cadence on
// adaptive kernels (kernel.DefaultSendWindowPages == VectoredRun, so
// non-adaptive kernels behave exactly as before).  The send window
// already bounds how many mappings stay live awaiting acknowledgments;
// the mapping window rides on top of that, so it is kept small enough
// that window + run cannot strain even a test-sized mapping cache.
const VectoredRun = kernel.DefaultSendWindowPages

// SendFile transmits the whole named file over conn, returning the bytes
// sent.  Pages are resolved through the filesystem (real metadata I/O),
// wired, mapped shared, and queued; release happens on TCP
// acknowledgment inside the connection.
//
// On kernels whose mapper batches natively the pages are mapped in
// windows (one send extent per window, a contiguous run or a vectored
// batch, released when the window's last byte is acknowledged); which
// of the two each window takes is the sendfile consumer's contiguity
// decision — static under a pinned Contig policy, learned per window
// from the file extents' observed reuse under the adaptive one.
// Packetization is unchanged either way, so the network-side costs are
// identical and only the mapping-side lock, walk and shootdown economy
// differs.  The original kernel keeps the historical per-page allocation
// its evaluation baselines measured.
func SendFile(ctx *smp.Context, k *kernel.Kernel, fsys *fs.FS, conn *netstack.Conn, name string) (int64, error) {
	size, err := fsys.Size(ctx, name)
	if err != nil {
		return 0, err
	}
	ctx.Charge(ctx.Cost().Syscall)
	if k.WindowedSend() {
		return sendFileWindowed(ctx, k, fsys, conn, name, size)
	}
	var sent int64
	for off := int64(0); off < size; {
		pi := int(off / vm.PageSize)
		pg, err := fsys.FilePage(ctx, name, pi)
		if err != nil {
			return sent, fmt.Errorf("sendfile: resolving page %d of %q: %w", pi, name, err)
		}
		pg.Wire()
		ctx.Charge(ctx.Cost().PageWire)
		b, err := k.Map.Alloc(ctx, pg, 0) // shared mapping
		if err != nil {
			pg.Unwire()
			return sent, fmt.Errorf("sendfile: mapping page: %w", err)
		}
		po := int(off % vm.PageSize)
		n := int(min64(vm.PageSize-int64(po), size-off))
		page := pg
		ext := mbuf.NewExt(b, pg, func(fctx *smp.Context) {
			k.Map.Free(fctx, b)
			page.Unwire()
		})
		chain := &mbuf.Chain{}
		chain.Append(mbuf.NewExtMbuf(ext, po, n))
		if err := conn.SendChain(ctx, chain); err != nil {
			return sent, err
		}
		off += int64(n)
		sent += int64(n)
	}
	return sent, nil
}

// sendFileWindowed is the windowed-send loop: resolve and wire a run of
// file pages, map it as one send extent through the sendfile consumer,
// then hand the pages to the socket one chain per page exactly as the
// per-page path does.  Each page's release on acknowledgment drops one
// extent reference; the last drop unmaps the whole window.  A window the
// consumer declines — wider than the whole mapping cache — falls back to
// per-page mappings rather than failing the send.
func sendFileWindowed(ctx *smp.Context, k *kernel.Kernel, fsys *fs.FS, conn *netstack.Conn, name string, size int64) (int64, error) {
	cons := k.Consumer("sendfile")
	var sent int64
	for off := int64(0); off < size; {
		pi := int(off / vm.PageSize)
		n := int((size-1)/vm.PageSize) - pi + 1
		// Window size is the connection's adaptive decision (the
		// historical fixed VectoredRun on non-adaptive kernels),
		// re-consulted per window so a long file adapts mid-transfer.
		if w := conn.SendWindowPages(); n > w {
			n = w
		}
		pages := make([]*vm.Page, 0, n)
		unwire := func() {
			for _, pg := range pages {
				pg.Unwire()
			}
		}
		for j := 0; j < n; j++ {
			pg, err := fsys.FilePage(ctx, name, pi+j)
			if err != nil {
				unwire()
				return sent, fmt.Errorf("sendfile: resolving page %d of %q: %w", pi+j, name, err)
			}
			pg.Wire()
			ctx.Charge(ctx.Cost().PageWire)
			pages = append(pages, pg)
		}
		ext, err := cons.MapSendExtent(ctx, pages)
		if errors.Is(err, sfbuf.ErrBatchTooLarge) {
			// The run exceeds the whole mapping cache: send these pages
			// one mapping at a time, exactly as the per-page path does.
			for j, pg := range pages {
				b, err := k.Map.Alloc(ctx, pg, 0)
				if err != nil {
					for _, rest := range pages[j:] {
						rest.Unwire()
					}
					return sent, fmt.Errorf("sendfile: mapping page: %w", err)
				}
				po := int(off % vm.PageSize)
				take := int(min64(vm.PageSize-int64(po), size-off))
				buf, page := b, pg
				ext := mbuf.NewExt(b, pg, func(fctx *smp.Context) {
					k.Map.Free(fctx, buf)
					page.Unwire()
				})
				chain := &mbuf.Chain{}
				chain.Append(mbuf.NewExtMbuf(ext, po, take))
				if err := conn.SendChain(ctx, chain); err != nil {
					for _, rest := range pages[j+1:] {
						rest.Unwire()
					}
					return sent, err
				}
				off += int64(take)
				sent += int64(take)
			}
			continue
		}
		if err != nil {
			unwire()
			return sent, fmt.Errorf("sendfile: window-mapping run: %w", err)
		}
		bufs, unref := ext.Bufs(), ext.Release()
		for j := range bufs {
			po := int(off % vm.PageSize)
			take := int(min64(vm.PageSize-int64(po), size-off))
			chain := &mbuf.Chain{}
			chain.Append(mbuf.NewExtMbuf(mbuf.NewExt(bufs[j], pages[j], unref), po, take))
			if err := conn.SendChain(ctx, chain); err != nil {
				// The failed chain released its own reference; drop the
				// ones the unsent remainder of the window still holds.
				ext.Drop(ctx, len(bufs)-j-1)
				return sent, err
			}
			off += int64(take)
			sent += int64(take)
		}
	}
	return sent, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
