package vm

// Lazy, shared page storage.  A backed page is in one of three states,
// all held in its one data word so that every change of state is a single
// compare-and-swap:
//
//   - no storage (nil): the page reads as zeros;
//   - shared: the page points at an immutable block interned in its
//     PhysMem's block table, which any number of pages may share;
//   - owned: the page has a private buffer and is written in place.
//
// Only a page with no storage interns.  A whole-page store into one keeps
// it empty for zeros, shares an interned block holding the same bytes, and
// otherwise interns a new block while the table has room.  A whole-page
// store into a shared page keeps the block for equal bytes, drops the
// storage for zeros, and owns for anything else, without hashing: a page
// that is rewritten with new contents (an fs metadata block) would only
// fill the table with blocks no page shares any more.  Any other store,
// and any Data call, first owns the page: it allocates a private buffer
// and copies what the page read as.  An owned page stays owned — Free
// clears it in place — so a page that is written repeatedly pays no
// hashing and no allocation after it first owns.
//
// Blocks are immutable and never leave the table, so the table also holds
// each block's byte sum once something has asked for it (sum.go).

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"unsafe"
)

// maxInterned bounds each PhysMem's block table: 256 blocks, 1 MB.
const maxInterned = 256

// A page's storage word is a *byte: nil for no storage, &buf[0] for a
// private buffer the page owns, &blk[1] for an interned block it shares.
// newBlock allocates every block word-aligned, so the low address bit
// tells owned from shared, and one pointer-sized CAS changes the state
// with a single allocation per owned page.

// newBlock allocates a zeroed page-sized block whose type makes it
// word-aligned.
func newBlock() *[PageSize]byte {
	return (*[PageSize]byte)(unsafe.Pointer(new([PageSize / 8]uint64)))
}

func ownedRef(b *[PageSize]byte) *byte  { return &b[0] }
func sharedRef(b *[PageSize]byte) *byte { return &b[1] }

// deref decodes a storage word into its block and whether it is shared.
func deref(r *byte) (b *[PageSize]byte, shared bool) {
	if r == nil {
		return nil, false
	}
	if uintptr(unsafe.Pointer(r))&1 == 0 {
		return (*[PageSize]byte)(unsafe.Pointer(r)), false
	}
	return (*[PageSize]byte)(unsafe.Add(unsafe.Pointer(r), -1)), true
}

// blockTable interns immutable page-sized blocks by content, for the
// whole-page stores of one PhysMem.
type blockTable struct {
	mu     sync.Mutex
	seed   maphash.Seed
	byHash map[uint64][]*[PageSize]byte
	n      int
	// sums holds the byte sum of each block that has been summed whole,
	// keyed by block, so at most one entry per interned block.
	sums map[*[PageSize]byte]uint32
}

// intern returns the storage word for a page holding the page-sized src
// without owning a buffer: nil for all zeros, an existing block's when one
// holds the same bytes (compared, not assumed from the hash), or a new
// block's while the table has room.  ok is false when src is none of
// these and the caller must own a buffer.
func (t *blockTable) intern(src []byte) (ref *byte, ok bool) {
	if allZero(src) {
		return nil, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byHash == nil {
		t.seed = maphash.MakeSeed()
		t.byHash = make(map[uint64][]*[PageSize]byte)
	}
	h := maphash.Bytes(t.seed, src)
	for _, blk := range t.byHash[h] {
		if bytes.Equal(blk[:], src) {
			return sharedRef(blk), true
		}
	}
	if t.n == maxInterned {
		return nil, false
	}
	blk := newBlock()
	copy(blk[:], src)
	t.byHash[h] = append(t.byHash[h], blk)
	t.n++
	return sharedRef(blk), true
}

// allZero reports whether b holds only zero bytes, a word at a time.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// own returns the page's private buffer, first taking one that holds what
// the page read as when it has none.  The swap is a CAS: of two first
// writers one installs its buffer and the other writes into the winner's.
func (p *Page) own() *[PageSize]byte {
	for {
		r := p.data.Load()
		cur, shared := deref(r)
		if cur != nil && !shared {
			return cur
		}
		buf := newBlock()
		if cur != nil {
			*buf = *cur
		}
		if p.data.CompareAndSwap(r, ownedRef(buf)) {
			return buf
		}
	}
}

// Store writes src into page p at byte offset off; the caller
// bounds-checks.  A store of exactly PageSize bytes at offset 0 into a
// page with no storage interns, and one into a shared page keeps the
// block or drops the storage when it can (see the file comment); any
// other store writes in place into the page's private buffer, owning it
// first if needed.  Stores into unbacked pages move no bytes.
func (pm *PhysMem) Store(p *Page, off int, src []byte) {
	if !p.backed {
		return
	}
	if off == 0 && len(src) == PageSize {
		r := p.data.Load()
		switch cur, shared := deref(r); {
		case cur == nil:
			if ref, ok := pm.blocks.intern(src); ok && p.data.CompareAndSwap(r, ref) {
				return
			}
		case shared:
			if bytes.Equal(cur[:], src) {
				return
			}
			if allZero(src) && p.data.CompareAndSwap(r, nil) {
				return
			}
		}
	}
	copy(p.own()[off:], src)
}
