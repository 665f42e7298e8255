// Package sendfile implements the zero-copy sendfile(2) path of
// Section 2.3: the pages of a file are wired, mapped with shared ephemeral
// mappings (any CPU may retransmit them), attached to an mbuf chain and
// handed to the socket; the mappings persist until the chain is freed by
// acknowledgment.
package sendfile

import (
	"fmt"

	"sfbuf/internal/fs"
	"sfbuf/internal/kernel"
	"sfbuf/internal/mbuf"
	"sfbuf/internal/netstack"
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
// The pages are mapped in windows, one send extent per window through
// the sendfile consumer: a contiguous run, a vectored batch (released
// when the window's last byte is acknowledged) or, where the kernel has
// neither or the window is wider than the mapping cache, one mapping per
// page.  Which one each window takes is the consumer's decision — static
// under a pinned Contig policy, learned per window from the file
// extents' observed reuse under the adaptive one.  Packetization is the
// same either way, one chain per page, so the network-side costs are
// identical and only the mapping-side lock, walk and shootdown economy
// differs.
func SendFile(ctx *smp.Context, k *kernel.Kernel, fsys *fs.FS, conn *netstack.Conn, name string) (int64, error) {
	size, err := fsys.Size(ctx, name)
	if err != nil {
		return 0, err
	}
	ctx.Charge(ctx.Cost().Syscall)
	cons := k.Consumer("sendfile")
	var (
		sent  int64
		pages []*vm.Page
	)
	for off := int64(0); off < size; {
		pi := int(off / vm.PageSize)
		n := int((size-1)/vm.PageSize) - pi + 1
		// The window is the connection's adaptive decision (the
		// historical fixed VectoredRun on non-adaptive kernels),
		// re-consulted per window so a long file adapts mid-transfer;
		// one page where the kernel maps every send page by page.
		w := 1
		if k.WindowedSend() {
			w = conn.SendWindowPages()
		}
		n = min(n, w)
		pages = pages[:0]
		for j := 0; j < n; j++ {
			pg, err := fsys.FilePage(ctx, name, pi+j)
			if err != nil {
				for _, pg := range pages {
					pg.Unwire()
				}
				return sent, fmt.Errorf("sendfile: resolving page %d of %q: %w", pi+j, name, err)
			}
			pg.Wire()
			ctx.Charge(ctx.Cost().PageWire)
			pages = append(pages, pg)
		}
		ext, err := cons.MapSendExtent(ctx, pages)
		if err != nil {
			for _, pg := range pages {
				pg.Unwire()
			}
			return sent, fmt.Errorf("sendfile: mapping window: %w", err)
		}
		// Each page rides its own chain; its release on acknowledgment
		// drops its reference to the window.
		for j, pg := range pages {
			b, err := ext.Take(ctx, j)
			if err != nil {
				ext.Drop(ctx, n-j)
				return sent, fmt.Errorf("sendfile: mapping page: %w", err)
			}
			po := int(off % vm.PageSize)
			take := int(min(vm.PageSize-int64(po), size-off))
			chain := &mbuf.Chain{}
			chain.Append(mbuf.NewExtMbuf(mbuf.NewExt(b, pg, ext.Release(j)), po, take))
			if err := conn.SendChain(ctx, chain); err != nil {
				// The failed chain released its own page; drop the
				// references the unsent rest of the window still holds.
				ext.Drop(ctx, n-j-1)
				return sent, err
			}
			off += int64(take)
			sent += int64(take)
		}
	}
	return sent, nil
}
