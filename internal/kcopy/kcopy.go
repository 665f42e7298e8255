// Package kcopy implements the kernel's data movement primitives over the
// simulated MMU: every load and store through a kernel virtual address is
// translated by pmap.Translate, which consults the executing CPU's TLB and
// honestly follows whatever frame it returns.  Copies therefore both charge
// the architecture's per-byte cost and actually move bytes between page
// backing stores (when physical memory is backed), so a TLB-coherence bug
// upstream shows up as corrupted data downstream.
package kcopy

import (
	"encoding/binary"
	"sync"

	"sfbuf/internal/pmap"
	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// runScratch pools the page slices TranslateRun fills, keeping the
// steady-state run-copy path allocation-free like the repo's other hot
// paths (TLB node recycling, the reclaim scratch pool).
var runScratch = sync.Pool{New: func() any { return new([]*vm.Page) }}

// CopyIn copies src into kernel memory at kva (user-to-kernel direction:
// the kernel writing through an ephemeral mapping).
func CopyIn(ctx *smp.Context, pm *pmap.Pmap, kva uint64, src []byte) error {
	for len(src) > 0 {
		pg, err := pm.Translate(ctx, kva, true)
		if err != nil {
			return err
		}
		off := pmap.PageOffset(kva)
		n := min(vm.PageSize-off, len(src))
		if d := pg.Data(); d != nil {
			copy(d[off:off+n], src[:n])
		}
		ctx.ChargeBytesAt(ctx.Cost().CopyPerByte, n, pg.Frame())
		src = src[n:]
		kva += uint64(n)
	}
	return nil
}

// CopyOut copies n bytes from kernel memory at kva into dst
// (kernel-to-user direction: the kernel reading through an ephemeral
// mapping).  len(dst) bytes are copied.
func CopyOut(ctx *smp.Context, pm *pmap.Pmap, dst []byte, kva uint64) error {
	for len(dst) > 0 {
		pg, err := pm.Translate(ctx, kva, false)
		if err != nil {
			return err
		}
		off := pmap.PageOffset(kva)
		n := min(vm.PageSize-off, len(dst))
		if d := pg.Data(); d != nil {
			copy(dst[:n], d[off:off+n])
		} else {
			clear(dst[:n])
		}
		ctx.ChargeBytesAt(ctx.Cost().CopyPerByte, n, pg.Frame())
		dst = dst[n:]
		kva += uint64(n)
	}
	return nil
}

// CopyInVec copies src into the page run mapped by bufs, starting at byte
// offset off within the run.  A vectored mapping's buffers need not be
// virtually contiguous (only the original kernel's 64-bit path returns a
// consecutive range), so each page's bytes move through that page's own
// kernel virtual address — and therefore through the executing CPU's TLB,
// keeping the coherence protocol load-bearing page by page.
func CopyInVec(ctx *smp.Context, pm *pmap.Pmap, bufs []*sfbuf.Buf, off int, src []byte) error {
	for len(src) > 0 {
		pi, po := off/vm.PageSize, off%vm.PageSize
		n := min(vm.PageSize-po, len(src))
		if err := CopyIn(ctx, pm, bufs[pi].KVA()+uint64(po), src[:n]); err != nil {
			return err
		}
		src = src[n:]
		off += n
	}
	return nil
}

// CopyOutVec copies len(dst) bytes out of the page run mapped by bufs,
// starting at byte offset off within the run; the vectored counterpart of
// CopyOut with the same per-page translation behaviour as CopyInVec.
func CopyOutVec(ctx *smp.Context, pm *pmap.Pmap, dst []byte, bufs []*sfbuf.Buf, off int) error {
	for len(dst) > 0 {
		pi, po := off/vm.PageSize, off%vm.PageSize
		n := min(vm.PageSize-po, len(dst))
		if err := CopyOut(ctx, pm, dst[:n], bufs[pi].KVA()+uint64(po)); err != nil {
			return err
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// CopyInRun copies src into the contiguous run r starting at byte offset
// off within the run.  Where CopyInVec pays one translation per page —
// the scattered-KVA tax — a contiguous window is resolved with ONE
// ranged translate for the whole crossing (pmap.TranslateRun: one
// page-table walk per contiguous PTE run, one TLB entry for a promoted
// superpage window), which is the kcopy cost model the paper's amd64
// direct map enjoys implicitly.  Non-contiguous fallback runs take the
// vectored per-page path, exactly what their scattered mappings cost.
func CopyInRun(ctx *smp.Context, pm *pmap.Pmap, r *sfbuf.Run, off int, src []byte) error {
	if !r.Contiguous() {
		return CopyInVec(ctx, pm, r.Bufs(), off, src)
	}
	return copyRun(ctx, pm, r, off, src, true)
}

// CopyOutRun copies len(dst) bytes out of the contiguous run r starting
// at byte offset off within the run; the read-side counterpart of
// CopyInRun with the same ranged-translate economy.
func CopyOutRun(ctx *smp.Context, pm *pmap.Pmap, dst []byte, r *sfbuf.Run, off int) error {
	if !r.Contiguous() {
		return CopyOutVec(ctx, pm, dst, r.Bufs(), off)
	}
	return copyRun(ctx, pm, r, off, dst, false)
}

// copyRun moves buf against the contiguous window: one TranslateRun for
// the page span the transfer crosses, then per-page byte movement through
// the returned frames — which are exactly the frames the executing CPU's
// TLB (honestly, staleness included) resolved.
func copyRun(ctx *smp.Context, pm *pmap.Pmap, r *sfbuf.Run, off int, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	pi0 := off / vm.PageSize
	pi1 := (off + len(buf) - 1) / vm.PageSize
	scratch := runScratch.Get().(*[]*vm.Page)
	defer func() {
		clear(*scratch)
		*scratch = (*scratch)[:0]
		runScratch.Put(scratch)
	}()
	pages, err := pm.TranslateRun(ctx, r.Base()+uint64(pi0)*vm.PageSize, pi1-pi0+1, write, (*scratch)[:0])
	if err != nil {
		return err
	}
	*scratch = pages
	po := off - pi0*vm.PageSize
	for _, pg := range pages {
		n := min(vm.PageSize-po, len(buf))
		if d := pg.Data(); d != nil {
			if write {
				copy(d[po:po+n], buf[:n])
			} else {
				copy(buf[:n], d[po:po+n])
			}
		} else if !write {
			clear(buf[:n])
		}
		ctx.ChargeBytesAt(ctx.Cost().CopyPerByte, n, pg.Frame())
		buf = buf[n:]
		po = 0
	}
	return nil
}

// Zero clears n bytes of kernel memory at kva.
func Zero(ctx *smp.Context, pm *pmap.Pmap, kva uint64, n int) error {
	for n > 0 {
		pg, err := pm.Translate(ctx, kva, true)
		if err != nil {
			return err
		}
		off := pmap.PageOffset(kva)
		c := min(vm.PageSize-off, n)
		if d := pg.Data(); d != nil {
			clear(d[off : off+c])
		}
		ctx.ChargeBytesAt(ctx.Cost().CopyPerByte, c, pg.Frame())
		n -= c
		kva += uint64(c)
	}
	return nil
}

// byteSum returns the sum of d's bytes modulo 2^32, eight bytes per step:
// a word's even and odd bytes are added as four 16-bit lanes (SWAR) into
// two accumulators, 32 bytes per iteration, and the lanes are folded into
// the 32-bit sum before they can overflow.
func byteSum(d []byte) uint32 {
	const (
		lanes = 0x00ff00ff00ff00ff // the even bytes of a word
		wide  = 0x0000ffff0000ffff // the even lanes of an accumulator
		// A lane gains at most 2*255 per word and an accumulator takes half
		// of a block's 128 words (plus at most three more): under 2^16.
		flushBytes = 128 * 8
	)
	var sum uint32
	for len(d) >= 8 {
		blk := d[:min(len(d), flushBytes)&^7]
		d = d[len(blk):]
		var a0, a1 uint64
		for ; len(blk) >= 32; blk = blk[32:] {
			w0 := binary.LittleEndian.Uint64(blk)
			w1 := binary.LittleEndian.Uint64(blk[8:])
			w2 := binary.LittleEndian.Uint64(blk[16:])
			w3 := binary.LittleEndian.Uint64(blk[24:])
			a0 += w0&lanes + (w0>>8)&lanes + w2&lanes + (w2>>8)&lanes
			a1 += w1&lanes + (w1>>8)&lanes + w3&lanes + (w3>>8)&lanes
		}
		for ; len(blk) >= 8; blk = blk[8:] {
			w := binary.LittleEndian.Uint64(blk)
			a0 += w&lanes + (w>>8)&lanes
		}
		a0 = a0&wide + (a0>>16)&wide + a1&wide + (a1>>16)&wide
		sum += uint32(a0) + uint32(a0>>32)
	}
	for _, b := range d {
		sum += uint32(b)
	}
	return sum
}

// Checksum computes the ones-complement-style checksum of n bytes at kva,
// as the software TCP checksum path does.  It reads the data through the
// MMU — setting PTE accessed bits — which is exactly the behaviour the
// paper's checksum-offload experiment (Section 6.5.2) turns on and off.
func Checksum(ctx *smp.Context, pm *pmap.Pmap, kva uint64, n int) (uint32, error) {
	var sum uint32
	for n > 0 {
		pg, err := pm.Translate(ctx, kva, false)
		if err != nil {
			return 0, err
		}
		off := pmap.PageOffset(kva)
		c := min(vm.PageSize-off, n)
		if d := pg.Data(); d != nil {
			sum += byteSum(d[off : off+c])
		}
		ctx.ChargeBytesAt(ctx.Cost().ChecksumPerByte, c, pg.Frame())
		n -= c
		kva += uint64(c)
	}
	return sum, nil
}

// ChecksumRun is Checksum over a span of a contiguous run window: where
// Checksum charges one translation per page crossed, ChecksumRun resolves
// the covering pages with ONE ranged translate (pmap.TranslateRun — one
// page-table walk per contiguous PTE run, one TLB entry for a promoted
// superpage window), the same economy CopyInRun/CopyOutRun already give
// the data movement.  It is what the netstack software-checksum path
// (checksum offload disabled) uses over run-mapped packets, shaving the
// last per-page walks off zero-copy send.  kva need not be page-aligned,
// but every page the span [kva, kva+n) touches must be mapped — true by
// construction inside a run window.
func ChecksumRun(ctx *smp.Context, pm *pmap.Pmap, kva uint64, n int) (uint32, error) {
	if n <= 0 {
		return 0, nil
	}
	base := kva - uint64(pmap.PageOffset(kva))
	npages := int((kva+uint64(n)-1-base)/vm.PageSize) + 1
	scratch := runScratch.Get().(*[]*vm.Page)
	defer func() {
		clear(*scratch)
		*scratch = (*scratch)[:0]
		runScratch.Put(scratch)
	}()
	pages, err := pm.TranslateRun(ctx, base, npages, false, (*scratch)[:0])
	if err != nil {
		return 0, err
	}
	*scratch = pages
	var sum uint32
	off := pmap.PageOffset(kva)
	for _, pg := range pages {
		c := min(vm.PageSize-off, n)
		if d := pg.Data(); d != nil {
			sum += byteSum(d[off : off+c])
		}
		ctx.ChargeBytesAt(ctx.Cost().ChecksumPerByte, c, pg.Frame())
		n -= c
		off = 0
	}
	return sum, nil
}
