package mbuf

import (
	"testing"
	"testing/quick"
	"unsafe"

	"sfbuf/internal/arch"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

func testCtx() *smp.Context {
	m := smp.NewMachine(arch.XeonMP(), 32, true)
	return m.Ctx(0)
}

func TestInlineMbuf(t *testing.T) {
	m := NewInline([]byte("hello"))
	if m.Len != 5 || string(m.InlineBytes()) != "hello" {
		t.Fatalf("inline mbuf wrong: len=%d", m.Len)
	}
	if m.KVA() != 0 {
		t.Fatal("inline mbuf must have no KVA")
	}
}

func TestInlineOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized inline must panic")
		}
	}()
	NewInline(make([]byte, MLEN+1))
}

func TestExtRefCounting(t *testing.T) {
	ctx := testCtx()
	freed := 0
	e := NewExt(nil, nil, func(*smp.Context) { freed++ })
	e.Ref()
	e.Ref()
	if e.Refs() != 3 {
		t.Fatalf("refs = %d", e.Refs())
	}
	e.Unref(ctx)
	e.Unref(ctx)
	if freed != 0 {
		t.Fatal("freed too early")
	}
	e.Unref(ctx)
	if freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
}

func TestExtUnderflowPanics(t *testing.T) {
	ctx := testCtx()
	e := NewExt(nil, nil, nil)
	e.Unref(ctx)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow must panic")
		}
	}()
	e.Unref(ctx)
}

func TestExtRangeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-page range must panic")
		}
	}()
	NewExtMbuf(NewExt(nil, nil, nil), vm.PageSize-10, 20)
}

func TestChainAppendAndLen(t *testing.T) {
	c := &Chain{}
	c.Append(NewInline(make([]byte, 100)))
	c.Append(NewInline(make([]byte, 50)))
	if c.PktLen != 150 || c.Mbufs() != 2 {
		t.Fatalf("chain len=%d mbufs=%d", c.PktLen, c.Mbufs())
	}
}

func TestChainFreeReleasesExts(t *testing.T) {
	ctx := testCtx()
	freed := 0
	c := &Chain{}
	for i := 0; i < 3; i++ {
		e := NewExt(nil, nil, func(*smp.Context) { freed++ })
		c.Append(NewExtMbuf(e, 0, 100))
	}
	c.Free(ctx)
	if freed != 3 {
		t.Fatalf("freed = %d, want 3", freed)
	}
	if c.PktLen != 0 || c.Head != nil {
		t.Fatal("chain not emptied")
	}
}

func TestSplitWholeMbufsTransferOwnership(t *testing.T) {
	ctx := testCtx()
	freed := 0
	c := &Chain{}
	e1 := NewExt(nil, nil, func(*smp.Context) { freed++ })
	e2 := NewExt(nil, nil, func(*smp.Context) { freed++ })
	c.Append(NewExtMbuf(e1, 0, 100))
	c.Append(NewExtMbuf(e2, 0, 200))

	head := c.Split(100)
	if head.PktLen != 100 || c.PktLen != 200 {
		t.Fatalf("split lens = %d/%d", head.PktLen, c.PktLen)
	}
	head.Free(ctx)
	if freed != 1 {
		t.Fatalf("freed = %d, want 1 (ownership transferred, not shared)", freed)
	}
	c.Free(ctx)
	if freed != 2 {
		t.Fatalf("freed = %d, want 2", freed)
	}
}

func TestSplitPartialSharesExternal(t *testing.T) {
	ctx := testCtx()
	freed := 0
	e := NewExt(nil, nil, func(*smp.Context) { freed++ })
	c := &Chain{}
	c.Append(NewExtMbuf(e, 0, 1000))

	head := c.Split(300)
	if head.PktLen != 300 || c.PktLen != 700 {
		t.Fatalf("split lens = %d/%d", head.PktLen, c.PktLen)
	}
	if e.Refs() != 2 {
		t.Fatalf("refs = %d, want 2 (shared across split)", e.Refs())
	}
	// The remainder must start where the prefix ended.
	if c.Head.Off != 300 || c.Head.Len != 700 {
		t.Fatalf("remainder off=%d len=%d", c.Head.Off, c.Head.Len)
	}
	head.Free(ctx)
	if freed != 0 {
		t.Fatal("external freed while still referenced")
	}
	c.Free(ctx)
	if freed != 1 {
		t.Fatalf("freed = %d, want 1", freed)
	}
}

func TestSplitPartialInlineCopies(t *testing.T) {
	c := &Chain{}
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	c.Append(NewInline(data))
	head := c.Split(40)
	if head.PktLen != 40 || c.PktLen != 60 {
		t.Fatalf("split lens = %d/%d", head.PktLen, c.PktLen)
	}
	if head.Head.InlineBytes()[39] != 39 {
		t.Fatal("prefix bytes wrong")
	}
	if c.Head.InlineBytes()[0] != 40 {
		t.Fatal("remainder bytes wrong")
	}
}

func TestSplitEntireChain(t *testing.T) {
	c := &Chain{}
	c.Append(NewInline(make([]byte, 10)))
	head := c.Split(10)
	if head.PktLen != 10 || c.PktLen != 0 || c.Head != nil {
		t.Fatal("full split left residue")
	}
	if c.Split(5) != nil {
		t.Fatal("split of empty chain must return nil")
	}
}

// Property: any sequence of random splits preserves total length, keeps
// every chain's bytes in order, and balances external references exactly.
func TestQuickSplitConservation(t *testing.T) {
	ctx := testCtx()
	f := func(sizes []uint16, cuts []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		c := &Chain{}
		var exts []*Ext
		total := 0
		for _, s := range sizes {
			n := int(s)%vm.PageSize + 1
			e := NewExt(nil, nil, nil)
			exts = append(exts, e)
			c.Append(NewExtMbuf(e, 0, n))
			total += n
		}
		var pieces []*Chain
		for _, cut := range cuts {
			if c.PktLen == 0 {
				break
			}
			n := int(cut)%c.PktLen + 1
			p := c.Split(n)
			if p == nil {
				return false
			}
			pieces = append(pieces, p)
		}
		sum := c.PktLen
		for _, p := range pieces {
			sum += p.PktLen
		}
		if sum != total {
			return false
		}
		c.Free(ctx)
		for _, p := range pieces {
			p.Free(ctx)
		}
		for _, e := range exts {
			if e.Refs() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentationLikeSendPath(t *testing.T) {
	// Segmenting a multi-page chain at an MSS that straddles page
	// boundaries must preserve total length and reference every external
	// exactly as many times as packets touch it.
	ctx := testCtx()
	c := &Chain{}
	var exts []*Ext
	for i := 0; i < 4; i++ {
		e := NewExt(nil, nil, nil)
		exts = append(exts, e)
		c.Append(NewExtMbuf(e, 0, vm.PageSize))
	}
	total := c.PktLen
	var pkts []*Chain
	for c.PktLen > 0 {
		p := c.Split(min(1460, c.PktLen))
		pkts = append(pkts, p)
	}
	sum := 0
	for _, p := range pkts {
		sum += p.PktLen
	}
	if sum != total {
		t.Fatalf("segmentation lost bytes: %d != %d", sum, total)
	}
	// Free all packets; every ext must reach exactly zero refs (no
	// leaks, no double frees — Unref panics on underflow).
	for _, p := range pkts {
		p.Free(ctx)
	}
	for i, e := range exts {
		if e.Refs() != 0 {
			t.Fatalf("ext %d refs = %d, want 0", i, e.Refs())
		}
	}
}

// TestMbufAllocationShape pins what an mbuf costs the host: an inline
// mbuf is ONE allocation (header and storage together), and an external
// mbuf is one allocation that does not carry the MLEN inline bytes.
func TestMbufAllocationShape(t *testing.T) {
	data := make([]byte, MLEN)
	var keep *Mbuf
	if n := testing.AllocsPerRun(100, func() { keep = NewInline(data) }); n != 1 {
		t.Errorf("NewInline made %.0f allocations, want 1", n)
	}
	if len(keep.InlineBytes()) != MLEN {
		t.Fatal("inline storage lost")
	}
	ext := NewExt(nil, nil, nil)
	if n := testing.AllocsPerRun(100, func() { keep = NewExtMbuf(ext, 0, 100) }); n != 1 {
		t.Errorf("NewExtMbuf made %.0f allocations, want 1", n)
	}
	if sz := unsafe.Sizeof(Mbuf{}); sz >= MLEN {
		t.Errorf("an external mbuf is %d bytes: it still pays for inline storage", sz)
	}
}

// TestExtResetReuse covers recycling: released storage re-arms with one
// reference and its new hook, and storage an mbuf may still see refuses.
func TestExtResetReuse(t *testing.T) {
	ctx := testCtx()
	first, second := 0, 0
	e := NewExt(nil, nil, func(*smp.Context) { first++ })
	e.Unref(ctx)
	e.Reset(nil, nil, func(*smp.Context) { second++ })
	if e.Refs() != 1 {
		t.Fatalf("refs after reset = %d, want 1", e.Refs())
	}
	e.Unref(ctx)
	if first != 1 || second != 1 {
		t.Fatalf("release hooks ran %d and %d times, want once each", first, second)
	}
	e.Reset(nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("resetting referenced storage must panic")
		}
	}()
	e.Reset(nil, nil, nil)
}

// TestSetExtReusesEmbeddedMbuf: an mbuf embedded in a caller's object is
// re-pointed in place, under the same range validation as NewExtMbuf.
func TestSetExtReusesEmbeddedMbuf(t *testing.T) {
	var seg struct {
		chain Chain
		m     Mbuf
	}
	ctx := testCtx()
	for round := 0; round < 2; round++ {
		seg.m.SetExt(NewExt(nil, nil, nil), 100*round, 1460)
		seg.chain.Append(&seg.m)
		if seg.chain.PktLen != 1460 || seg.chain.Mbufs() != 1 || seg.m.Off != 100*round {
			t.Fatalf("round %d: chain %+v over mbuf %+v", round, seg.chain, seg.m)
		}
		seg.chain.Free(ctx)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-page range must panic")
		}
	}()
	seg.m.SetExt(NewExt(nil, nil, nil), vm.PageSize-10, 20)
}
