package vm

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// pattern returns a page of bytes derived from seed.
func pattern(seed byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = byte(i) ^ seed
	}
	return b
}

// block returns the block a page's storage word points at and whether it
// is shared.
func block(p *Page) (*[PageSize]byte, bool) { return deref(p.data.Load()) }

func TestPageStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n > 48 {
		t.Fatalf("Page is %d bytes, want at most 48", n)
	}
}

func TestWholePageStoresShareOneBlock(t *testing.T) {
	pm := NewPhysMem(4, true)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	want := pattern(7)
	pm.Store(a, 0, want)
	pm.Store(b, 0, want)
	ab, aShared := block(a)
	bb, bShared := block(b)
	if !aShared || !bShared || ab != bb {
		t.Fatalf("equal whole-page stores: shared %v/%v, same block %v; want one shared block", aShared, bShared, ab == bb)
	}
	if pm.blocks.n != 1 {
		t.Fatalf("table holds %d blocks, want 1", pm.blocks.n)
	}

	// A partial store copies on write: a owns a private buffer, b and the
	// interned block keep the old bytes.
	pm.Store(a, 100, []byte{0xEE, 0xEF})
	if !bytes.Equal(b.View(), want) || !bytes.Equal(bb[:], want) {
		t.Fatal("a partial store into one sharer changed the other")
	}
	if got, shared := block(a); shared || got == bb {
		t.Fatal("a partial store into a shared page did not take a private buffer")
	}
	wantA := append([]byte(nil), want...)
	wantA[100], wantA[101] = 0xEE, 0xEF
	if !bytes.Equal(a.View(), wantA) {
		t.Fatal("the owning store lost the old contents or its own bytes")
	}

	// Data owns too: a write through it leaves the block alone.
	b.Data()[0] ^= 0xFF
	if !bytes.Equal(bb[:], want) {
		t.Fatal("a write through Data changed the shared block")
	}
}

func TestZeroWholePageStoreDropsStorage(t *testing.T) {
	pm := NewPhysMem(2, true)
	p, _ := pm.Alloc()
	pm.Store(p, 0, pattern(1))
	pm.Store(p, 0, make([]byte, PageSize))
	if p.View() != nil {
		t.Fatal("an all-zero whole-page store left the page with storage")
	}
	pm.Store(p, 0, make([]byte, PageSize))
	if p.View() != nil || pm.blocks.n != 1 {
		t.Fatalf("zeros interned: storage %v, table %d blocks", p.View() != nil, pm.blocks.n)
	}
	// A partial store into no storage owns a zero-filled buffer.
	pm.Store(p, PageSize-1, []byte{9})
	want := make([]byte, PageSize)
	want[PageSize-1] = 9
	if _, shared := block(p); shared || !bytes.Equal(p.View(), want) {
		t.Fatal("a partial store into an empty page did not own a zeroed buffer")
	}
}

// TestWholePageStoreIntoSharedPageDoesNotIntern pins the rule that only
// a page with no storage interns: into a shared page, equal bytes keep the
// block, zeros drop the storage, and other bytes own without a new block.
func TestWholePageStoreIntoSharedPageDoesNotIntern(t *testing.T) {
	pm := NewPhysMem(2, true)
	p, _ := pm.Alloc()
	q, _ := pm.Alloc()
	pm.Store(p, 0, pattern(1))
	pm.Store(q, 0, pattern(1))
	blk, _ := block(p)

	pm.Store(p, 0, pattern(1))
	if got, shared := block(p); !shared || got != blk {
		t.Fatal("an equal whole-page store into a shared page did not keep its block")
	}
	pm.Store(p, 0, pattern(2))
	if got, shared := block(p); shared || got == nil || pm.blocks.n != 1 {
		t.Fatalf("a different whole-page store into a shared page: shared %v, table %d blocks; want owned, 1 block", shared, pm.blocks.n)
	}
	if !bytes.Equal(p.View(), pattern(2)) || !bytes.Equal(q.View(), pattern(1)) {
		t.Fatal("the owning store lost its bytes or changed the other sharer")
	}
	pm.Store(q, 0, make([]byte, PageSize))
	if q.View() != nil || pm.blocks.n != 1 {
		t.Fatalf("a zero whole-page store into a shared page: storage %v, table %d blocks", q.View() != nil, pm.blocks.n)
	}
}

func TestOwnedPageWritesInPlace(t *testing.T) {
	pm := NewPhysMem(1, true)
	p, _ := pm.Alloc()
	buf := p.Data()
	pm.Store(p, 0, pattern(3))
	if !bytes.Equal(buf, pattern(3)) {
		t.Fatal("a whole-page store into an owned page did not write its buffer in place")
	}
	if pm.blocks.n != 0 {
		t.Fatal("a whole-page store into an owned page interned")
	}
}

func TestFreeOfSharedPageKeepsBlock(t *testing.T) {
	pm := NewPhysMem(2, true)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	want := pattern(9)
	pm.Store(a, 0, want)
	pm.Store(b, 0, want)
	pm.Free(a)
	if a.View() != nil {
		t.Fatal("a freed shared page still references its block")
	}
	if !bytes.Equal(b.View(), want) {
		t.Fatal("freeing one sharer changed the block the other reads")
	}
	// The owned case keeps its buffer, cleared.
	own := b.Data()
	pm.Free(b)
	if got, shared := block(b); shared || got == nil || !bytes.Equal(got[:], make([]byte, PageSize)) || &got[0] != &own[0] {
		t.Fatal("a freed owned page did not keep its cleared buffer")
	}
}

func TestTableBoundOwnsWhenFull(t *testing.T) {
	pm := NewPhysMem(maxInterned+1, true)
	for i := 0; i < maxInterned; i++ {
		q, _ := pm.Alloc()
		src := pattern(0)
		src[0], src[1] = byte(i), byte(i>>8)+1
		pm.Store(q, 0, src)
	}
	if pm.blocks.n != maxInterned {
		t.Fatalf("table holds %d blocks, want %d", pm.blocks.n, maxInterned)
	}
	p, _ := pm.Alloc()
	pm.Store(p, 0, pattern(0xAB))
	if _, shared := block(p); shared || pm.blocks.n != maxInterned {
		t.Fatalf("a store past a full table: shared %v, table %d blocks", shared, pm.blocks.n)
	}
	if !bytes.Equal(p.View(), pattern(0xAB)) {
		t.Fatal("the owning store lost its bytes")
	}
}

func TestMigratePageCopiesStorageState(t *testing.T) {
	pm := NewBuddyPhysMem(64, true)
	shared, _ := pm.Alloc()
	owned, _ := pm.Alloc()
	pm.Store(shared, 0, pattern(5))
	owned.Data()[7] = 7
	for _, src := range []*Page{shared, owned} {
		dst, _ := pm.Alloc()
		old, _ := block(src)
		if !pm.MigratePage(src, dst) {
			t.Fatal("migration refused")
		}
		sb, sShared := block(src)
		db, dShared := block(dst)
		if sb != old || sShared != dShared || (sShared && db != sb) || (!sShared && db == sb) {
			t.Fatalf("migration: src shared %v, dst shared %v, same block %v", sShared, dShared, db == sb)
		}
		if !bytes.Equal(sb[:], db[:]) {
			t.Fatal("migration: dst does not read as src")
		}
	}
}

func TestUnbackedStoreMovesNothing(t *testing.T) {
	pm := NewPhysMem(1, false)
	p, _ := pm.Alloc()
	pm.Store(p, 0, pattern(1))
	pm.Store(p, 3, []byte{1})
	if p.View() != nil || p.Data() != nil || p.Backed() {
		t.Fatal("an unbacked page took storage")
	}
}

// TestConcurrentFirstStoresKeepBothHalves races two first partial stores
// into disjoint halves of a shared page: whichever owns the page first,
// the other must write into the winner's buffer, never a lost copy.  A
// third goroutine sums another sharer of the block meanwhile, and the page
// that owns must then sum as its own bytes, not as the block it left.
func TestConcurrentFirstStoresKeepBothHalves(t *testing.T) {
	pm := NewPhysMem(2, true)
	p, _ := pm.Alloc()
	base := pattern(1)
	lo := bytes.Repeat([]byte{0xA5}, PageSize/2)
	hi := bytes.Repeat([]byte{0x5B}, PageSize/2) // the halves do not sum as base does
	q, _ := pm.Alloc()
	pm.Store(q, 0, base)
	want := refByteSum(base)
	for i := 0; i < 1000; i++ {
		p.data.Store(nil) // drop the last round's owned buffer
		pm.Store(p, 0, base)
		if _, shared := block(p); !shared {
			t.Fatal("setup: the page does not share a block")
		}
		if got := pm.Sum(p, 0, PageSize); got != want {
			t.Fatalf("iteration %d: shared page sums to %d, byte loop %d", i, got, want)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(3)
		for _, w := range []struct {
			off int
			src []byte
		}{{0, lo}, {PageSize / 2, hi}} {
			go func() {
				defer done.Done()
				start.Wait()
				pm.Store(p, w.off, w.src)
			}()
		}
		// The other sharer's block sum is asked for while p leaves it.
		var qSum uint32
		go func() {
			defer done.Done()
			start.Wait()
			qSum = pm.Sum(q, 0, PageSize)
		}()
		start.Done()
		done.Wait()
		v := p.View()
		if !bytes.Equal(v[:PageSize/2], lo) || !bytes.Equal(v[PageSize/2:], hi) {
			t.Fatalf("iteration %d: a first store was lost", i)
		}
		if got, want := pm.Sum(p, 0, PageSize), refByteSum(v); got != want || qSum != refByteSum(base) {
			t.Fatalf("iteration %d: sums after the race: owner %d (byte loop %d), sharer %d (byte loop %d)", i, got, want, qSum, refByteSum(base))
		}
	}
}
