// Package mbuf implements the network stack's buffer chains.  An mbuf
// either carries a small amount of inline data (protocol headers, small
// payloads) or references external storage: a page mapped by an sf_buf,
// which is how zero-copy send and sendfile attach user and file pages to
// packets without copying (Section 2.3).
//
// External storage is reference counted.  The sf_buf is released — and the
// page unwired — only when the last mbuf referencing it is freed, which in
// TCP terms happens when the acknowledgment covering those bytes arrives.
// That deferred release is what makes network ephemeral mappings shared
// rather than CPU-private: "any CPU may use the mappings to retransmit the
// pages".
package mbuf

import (
	"fmt"
	"sync/atomic"

	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// MLEN is the inline data capacity of one mbuf.
const MLEN = 224

// Ext is reference-counted external storage: a page held under an
// ephemeral mapping for as long as any mbuf references it.
type Ext struct {
	// Buf is the ephemeral mapping; nil for externals not backed by an
	// sf_buf (e.g. driver-owned receive pages before mapping).
	Buf *sfbuf.Buf
	// Page is the underlying physical page.
	Page *vm.Page
	refs atomic.Int32
	// free is invoked exactly once when the last reference drops; it
	// releases the sf_buf and unwires the page.
	free func(ctx *smp.Context)
}

// NewExt creates external storage with one reference.
func NewExt(buf *sfbuf.Buf, page *vm.Page, free func(ctx *smp.Context)) *Ext {
	e := new(Ext)
	e.Reset(buf, page, free)
	return e
}

// Reset re-arms released storage — no reference left, so no mbuf can
// still see it — for another page, with one reference, as NewExt would
// have built it.  It lets an owner that watches its externals' counts
// reach zero reuse the objects instead of allocating one per page.
func (e *Ext) Reset(buf *sfbuf.Buf, page *vm.Page, free func(ctx *smp.Context)) {
	if e.refs.Load() != 0 {
		panic("mbuf: reset of external storage that is still referenced")
	}
	e.Buf, e.Page, e.free = buf, page, free
	e.refs.Store(1)
}

// Ref adds a reference (packet segmentation sharing one page across
// several packets, retransmission queues).
func (e *Ext) Ref() { e.refs.Add(1) }

// Refs returns the current reference count (diagnostics and tests).
func (e *Ext) Refs() int32 { return e.refs.Load() }

// Unref drops one reference, running the release hook at zero.
func (e *Ext) Unref(ctx *smp.Context) {
	n := e.refs.Add(-1)
	if n < 0 {
		panic("mbuf: external storage reference underflow")
	}
	if n == 0 && e.free != nil {
		// Drop the hook as it fires: released storage must not keep the
		// mapping run it released reachable.
		free := e.free
		e.free = nil
		free(ctx)
	}
}

// Mbuf is one buffer in a chain: a view of external page storage, or of
// MLEN bytes of inline storage.  Only inline mbufs carry the inline
// bytes — they sit behind the header in the same allocation (see
// NewInline) — so a zero-copy mbuf, the kind the send paths build per
// packet, is the header alone.
type Mbuf struct {
	// Ext points at external page storage; nil for an inline mbuf.
	Ext *Ext
	// Off and Len delimit this mbuf's bytes: within the inline storage,
	// or within the external page (so Off+Len <= PageSize).
	Off, Len int
	// Next chains mbufs within one packet.
	Next *Mbuf
	// inline is the inline storage; nil for an external mbuf.
	inline *[MLEN]byte
}

// NewInline builds an inline mbuf holding a copy of data.  Header and
// storage are one allocation.
func NewInline(data []byte) *Mbuf {
	if len(data) > MLEN {
		panic(fmt.Sprintf("mbuf: inline data %d exceeds MLEN", len(data)))
	}
	im := &struct {
		Mbuf
		store [MLEN]byte
	}{}
	im.Len = len(data)
	im.inline = &im.store
	copy(im.store[:], data)
	return &im.Mbuf
}

// NewExtMbuf builds an mbuf referencing ext's bytes [off, off+n).  The
// caller is responsible for the reference accounting (this constructor
// does not Ref).
func NewExtMbuf(ext *Ext, off, n int) *Mbuf {
	m := new(Mbuf)
	m.SetExt(ext, off, n)
	return m
}

// SetExt points m — an mbuf the caller embeds in a larger object, or one
// whose chain has been freed — at ext's bytes [off, off+n), as NewExtMbuf
// would have built it.
func (m *Mbuf) SetExt(ext *Ext, off, n int) {
	if off < 0 || n < 0 || off+n > vm.PageSize {
		panic(fmt.Sprintf("mbuf: external range [%d,%d) out of page", off, off+n))
	}
	*m = Mbuf{Ext: ext, Off: off, Len: n}
}

// KVA returns the kernel virtual address of this mbuf's first byte, which
// for external mbufs dereferences the ephemeral mapping.  Inline mbufs
// have no simulated address; KVA returns 0 for them and callers use
// InlineBytes.
func (m *Mbuf) KVA() uint64 {
	if m.Ext == nil || m.Ext.Buf == nil {
		return 0
	}
	return m.Ext.Buf.KVA() + uint64(m.Off)
}

// InlineBytes returns the inline payload slice.
func (m *Mbuf) InlineBytes() []byte { return m.inline[m.Off : m.Off+m.Len] }

// Chain is a packet: a list of mbufs with a total length.
type Chain struct {
	Head *Mbuf
	tail *Mbuf
	// PktLen is the total payload length.
	PktLen int
}

// Append adds an mbuf to the chain.
func (c *Chain) Append(m *Mbuf) {
	if c.Head == nil {
		c.Head = m
	} else {
		c.tail.Next = m
	}
	c.tail = m
	c.PktLen += m.Len
}

// Mbufs returns the number of mbufs in the chain.
func (c *Chain) Mbufs() int {
	n := 0
	for m := c.Head; m != nil; m = m.Next {
		n++
	}
	return n
}

// Free releases every mbuf in the chain, dropping external references.
func (c *Chain) Free(ctx *smp.Context) {
	for m := c.Head; m != nil; m = m.Next {
		if m.Ext != nil {
			m.Ext.Unref(ctx)
		}
	}
	c.Head, c.tail, c.PktLen = nil, nil, 0
}

// Split carves the first n bytes off the chain into a new chain, sharing
// external storage (references are added, never copied) — the MTU
// segmentation primitive.  It returns nil when the chain is empty.
func (c *Chain) Split(n int) *Chain {
	if c.Head == nil || n <= 0 {
		return nil
	}
	out := &Chain{}
	for n > 0 && c.Head != nil {
		m := c.Head
		if m.Len <= n {
			// Whole mbuf moves: reference ownership transfers.
			c.Head = m.Next
			m.Next = nil
			if c.Head == nil {
				c.tail = nil
			}
			c.PktLen -= m.Len
			n -= m.Len
			out.Append(m)
			continue
		}
		// Partial: the new chain takes a prefix view; external storage
		// gains a reference.  Inline partials copy bytes.
		var pre *Mbuf
		if m.Ext != nil {
			m.Ext.Ref()
			pre = NewExtMbuf(m.Ext, m.Off, n)
		} else {
			pre = NewInline(m.inline[m.Off : m.Off+n])
		}
		m.Off += n
		m.Len -= n
		c.PktLen -= n
		out.Append(pre)
		n = 0
	}
	return out
}
