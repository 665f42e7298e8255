package vm

import "encoding/binary"

// Sum returns the sum modulo 2^32 of the n bytes at byte offset off of
// page p, as they read now; the caller bounds-checks.  A page with no
// storage, or an unbacked one, reads as zeros and sums to 0.  A
// whole-page span of a shared page returns its block's sum, computed the
// first time any page asks and held by the block table from then on: a
// block is immutable and never leaves the table, so the held sum stays
// exact.  Every other span — of an owned page, or part of a shared one —
// is summed directly.
func (pm *PhysMem) Sum(p *Page, off, n int) uint32 {
	b, shared := deref(p.data.Load())
	switch {
	case b == nil:
		return 0
	case shared && off == 0 && n == PageSize:
		return pm.blocks.sum(b)
	}
	return byteSum(b[off : off+n])
}

// sum returns blk's byte sum, summing it on the first call for blk.  blk
// is an interned block, so the table holds at most one entry per block.
func (t *blockTable) sum(blk *[PageSize]byte) uint32 {
	t.mu.Lock()
	s, ok := t.sums[blk]
	if !ok {
		if t.sums == nil {
			t.sums = make(map[*[PageSize]byte]uint32)
		}
		s = byteSum(blk[:])
		t.sums[blk] = s
	}
	t.mu.Unlock()
	return s
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
