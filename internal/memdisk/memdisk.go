// Package memdisk implements a memory disk (FreeBSD's md), Section 2.2:
// "Memory disks have a pool of physical pages.  To read from or write to a
// memory disk a CPU-private ephemeral mapping for the desired pages of the
// memory disk is created.  Then the data is copied between the ephemerally
// mapped pages and the read/write buffer provided by the user.  After the
// read or write operation completes, the ephemeral mapping is freed."
//
// The private-mapping option can be disabled (the dd experiment's
// "default (shared) mapping" configuration of Figures 4-7) to measure the
// cost of remote TLB invalidations on cache misses.
package memdisk

import (
	"errors"
	"fmt"
	"sync/atomic"

	"sfbuf/internal/kernel"
	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// SectorSize is the disk's addressable unit.
const SectorSize = 512

// ErrOutOfRange is returned for accesses beyond the end of the disk.
var ErrOutOfRange = errors.New("memdisk: access out of range")

// Disk is one memory disk.
type Disk struct {
	k     *kernel.Kernel
	pages []*vm.Page
	size  int64
	// contig is the memdisk subsystem's contiguity-policy handle: under
	// the adaptive policy it learns from the transfer extents' observed
	// reuse whether to map them as runs or batches.
	contig *kernel.MapConsumer

	// usePrivate selects the CPU-private mapping option; the evaluation
	// turns it off to quantify its benefit (Section 6.4.1).
	usePrivate atomic.Bool

	reads  atomic.Uint64
	writes atomic.Uint64
}

// New allocates a memory disk of the given size (rounded up to whole
// pages) from the machine's physical memory.  The pool is built from
// aligned physically contiguous extents — one AllocContig when a single
// block covers the disk, else one per maximal block — so transfers stay
// superpage-promotion-eligible even when the disk is created after churn;
// fragments degrade gracefully to scattered AllocN pages.
func New(k *kernel.Kernel, size int64) (*Disk, error) {
	if size <= 0 {
		return nil, fmt.Errorf("memdisk: invalid size %d", size)
	}
	npages := int((size + vm.PageSize - 1) / vm.PageSize)
	pages, err := allocPool(k, npages)
	if err != nil {
		return nil, fmt.Errorf("memdisk: allocating %d pages: %w", npages, err)
	}
	d := &Disk{k: k, pages: pages, size: size, contig: k.Consumer("memdisk")}
	d.usePrivate.Store(true)
	return d, nil
}

// allocPool assembles the disk's page pool, preferring aligned contiguous
// extents chunked at the buddy allocator's maximal block size.  When a
// maximal chunk is unavailable the request halves down to the superpage
// span before degrading — a pool whose biggest intact blocks are exactly
// superpage-sized still gets promotion-eligible chunks — and only a
// remainder no covering block can serve is filled with scattered AllocN
// pages.
func allocPool(k *kernel.Kernel, npages int) ([]*vm.Page, error) {
	var pool []*vm.Page
	release := func() {
		for _, pg := range pool {
			k.M.Phys.Free(pg)
		}
	}
	for len(pool) < npages {
		rem := npages - len(pool)
		chunk := min(rem, vm.MaxContigPages)
		pages, err := k.AllocPhysContig(chunk)
		for errors.Is(err, vm.ErrNoContig) && chunk > pmap.SuperpagePages {
			chunk = max(chunk/2, pmap.SuperpagePages)
			pages, err = k.AllocPhysContig(chunk)
		}
		if errors.Is(err, vm.ErrNoContig) {
			pages, err = k.M.Phys.AllocN(rem)
		}
		if err != nil {
			release()
			return nil, err
		}
		pool = append(pool, pages...)
	}
	return pool, nil
}

// Size returns the disk capacity in bytes.
func (d *Disk) Size() int64 { return d.size }

// Pages returns the disk's page pool; sendfile-style consumers map these
// directly.  Callers must not modify the slice.
func (d *Disk) Pages() []*vm.Page { return d.pages }

// PageAt returns the page backing byte offset off.
func (d *Disk) PageAt(off int64) (*vm.Page, error) {
	if off < 0 || off >= d.size {
		return nil, ErrOutOfRange
	}
	return d.pages[off/vm.PageSize], nil
}

// SetPrivateMappings toggles the CPU-private mapping option.
func (d *Disk) SetPrivateMappings(on bool) { d.usePrivate.Store(on) }

// PrivateMappings reports whether the private option is in use.
func (d *Disk) PrivateMappings() bool { return d.usePrivate.Load() }

func (d *Disk) flags() sfbuf.Flags {
	if d.usePrivate.Load() {
		return sfbuf.Private
	}
	return 0
}

// ReadAt copies len(dst) bytes at offset off into dst through ephemeral
// mappings of the disk's pages.
func (d *Disk) ReadAt(ctx *smp.Context, dst []byte, off int64) error {
	return d.transfer(ctx, dst, off, false)
}

// WriteAt copies src onto the disk at offset off through ephemeral
// mappings.
func (d *Disk) WriteAt(ctx *smp.Context, src []byte, off int64) error {
	return d.transfer(ctx, src, off, true)
}

// transfer moves one request's bytes between buf and the disk, mapped
// whole through the memdisk consumer handle — one VA window under ranged
// translation (for requests covering an aligned 2 MB-equivalent span of
// this disk's physically contiguous pool, simulated superpage promotion
// collapses it to one TLB entry), or one vectored batch where the mapper
// makes batching a fast path (the original kernel's pmap_qenter run, the
// sharded cache's per-shard batching).  A one-page request, every request
// on the paper's global-lock kernel, and a request wider than the mapping
// cache get a per-page extent: each page is mapped, copied and unmapped
// through the ephemeral mapping interface, exactly as Section 2.2
// describes.
func (d *Disk) transfer(ctx *smp.Context, buf []byte, off int64, write bool) error {
	if off < 0 || off+int64(len(buf)) > d.size {
		return ErrOutOfRange
	}
	if write {
		d.writes.Add(1)
	} else {
		d.reads.Add(1)
	}
	if len(buf) == 0 {
		return nil
	}
	// Every request pays the block-device path's fixed cost regardless
	// of kernel: bio setup, GEOM, and the md worker-thread handoff.
	ctx.Charge(ctx.Cost().BioFixed)

	first := int(off / vm.PageSize)
	last := int((off + int64(len(buf)) - 1) / vm.PageSize)
	ext, err := d.contig.MapExtent(ctx, d.pages[first:last+1], d.flags(), d.flags())
	if err != nil {
		return fmt.Errorf("memdisk: mapping for transfer: %w", err)
	}
	defer ext.Unmap(ctx)
	extOff := int(off - int64(first)*vm.PageSize)
	if write {
		return ext.CopyIn(ctx, extOff, buf)
	}
	return ext.CopyOut(ctx, buf, extOff)
}

// Ops returns the cumulative read and write operation counts.
func (d *Disk) Ops() (reads, writes uint64) {
	return d.reads.Load(), d.writes.Load()
}

// Release returns the disk's pages to physical memory.
func (d *Disk) Release() {
	for _, pg := range d.pages {
		d.k.M.Phys.Free(pg)
	}
	d.pages = nil
	d.size = 0
}
