package tlb

// The reference model and the differential harness over it: the flat TLB
// must be indistinguishable from the map-and-list one it replaced — same
// return values, same Stats, same victims — under any op stream.

import (
	"math/rand"
	"testing"
)

type refNode struct {
	vpn, frame uint64
	prev, next *refNode
}

// refTLB is the TLB as it was before the flat-table rebuild: a Go map over
// a pointer-linked LRU list, and a map plus an order slice for the
// superpage array.  It is kept as the executable specification the
// differential and fuzz tests hold TLB to.
type refTLB struct {
	capacity int
	entries  map[uint64]*refNode
	// LRU list: head.next is most recently used, tail.prev least.
	head, tail refNode
	// freeNodes recycles evicted/invalidated nodes (chained via next) so
	// a warm TLB inserts without allocating.
	freeNodes *refNode
	// large is the separate superpage array: at most LargeCap entries,
	// each mapping an aligned SuperSpan-page window by arithmetic from
	// its base frame.  Keyed by vpn >> SuperSpanShift; FIFO replacement.
	large      map[uint64]refLargeEntry
	largeOrder []uint64
	stats      Stats
}

// refLargeEntry is one superpage translation: the window's first vpn and the
// frame mapped there; frames within the window follow by arithmetic,
// which is what makes one entry cover the whole span.
type refLargeEntry struct {
	baseVPN uint64
	frame   uint64
}

func newRefTLB(capacity int) *refTLB {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	t := &refTLB{
		capacity: capacity,
		entries:  make(map[uint64]*refNode, capacity),
	}
	t.head.next = &t.tail
	t.tail.prev = &t.head
	return t
}

// Capacity returns the entry capacity.
func (t *refTLB) Capacity() int { return t.capacity }

// Len returns the number of resident entries.
func (t *refTLB) Len() int { return len(t.entries) }

func (t *refTLB) unlink(n *refNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (t *refTLB) recycle(n *refNode) {
	n.prev = nil
	n.next = t.freeNodes
	t.freeNodes = n
}

func (t *refTLB) newNode(vpn, frame uint64) *refNode {
	if n := t.freeNodes; n != nil {
		t.freeNodes = n.next
		n.vpn, n.frame = vpn, frame
		return n
	}
	return &refNode{vpn: vpn, frame: frame}
}

func (t *refTLB) pushFront(n *refNode) {
	n.next = t.head.next
	n.prev = &t.head
	t.head.next.prev = n
	t.head.next = n
}

// Lookup returns the cached frame for vpn, consulting the base-page array
// first and the superpage array second.  A base-page hit refreshes the
// entry's recency.  The returned frame may be stale with respect to the
// page tables; that is the point.
func (t *refTLB) Lookup(vpn uint64) (frame uint64, ok bool) {
	t.stats.Lookups++
	n, ok := t.entries[vpn]
	if ok {
		t.stats.Hits++
		t.unlink(n)
		t.pushFront(n)
		return n.frame, true
	}
	if le, ok := t.large[vpn>>SuperSpanShift]; ok && vpn >= le.baseVPN && vpn < le.baseVPN+SuperSpan {
		t.stats.Hits++
		t.stats.LargeHits++
		return le.frame + (vpn - le.baseVPN), true
	}
	t.stats.Misses++
	return 0, false
}

// Insert caches vpn -> frame, evicting the least recently used entry when
// at capacity.  Re-inserting an existing vpn updates the frame in place.
func (t *refTLB) Insert(vpn, frame uint64) {
	t.stats.Inserts++
	if n, ok := t.entries[vpn]; ok {
		n.frame = frame
		t.unlink(n)
		t.pushFront(n)
		return
	}
	if len(t.entries) >= t.capacity {
		victim := t.tail.prev
		t.unlink(victim)
		delete(t.entries, victim.vpn)
		t.recycle(victim)
		t.stats.Evictions++
	}
	n := t.newNode(vpn, frame)
	t.entries[vpn] = n
	t.pushFront(n)
}

// InsertLarge caches one superpage translation: baseVPN (which must be
// SuperSpan-aligned) maps to frame, and every vpn in the window follows by
// arithmetic.  At capacity the oldest large entry is replaced (FIFO), as
// on hardware with a fixed superpage array.
func (t *refTLB) InsertLarge(baseVPN, frame uint64) {
	if baseVPN&(SuperSpan-1) != 0 {
		panic("tlb: InsertLarge with unaligned base vpn")
	}
	key := baseVPN >> SuperSpanShift
	if t.large == nil {
		t.large = make(map[uint64]refLargeEntry, LargeCap)
	}
	if _, ok := t.large[key]; !ok {
		if len(t.large) >= LargeCap {
			victim := t.largeOrder[0]
			t.largeOrder = t.largeOrder[1:]
			delete(t.large, victim)
			t.stats.LargeEvictions++
		}
		t.largeOrder = append(t.largeOrder, key)
	}
	t.large[key] = refLargeEntry{baseVPN: baseVPN, frame: frame}
	t.stats.LargeInserts++
}

// Invalidate drops the entry for vpn, reporting whether one was resident
// (the model's invlpg).  An invlpg for any page of a superpage window
// drops the whole large entry, exactly as hardware specifies.
func (t *refTLB) Invalidate(vpn uint64) bool {
	hit := false
	if n, ok := t.entries[vpn]; ok {
		t.stats.Invalidations++
		t.unlink(n)
		delete(t.entries, vpn)
		t.recycle(n)
		hit = true
	}
	if key := vpn >> SuperSpanShift; t.large != nil {
		if _, ok := t.large[key]; ok {
			delete(t.large, key)
			for i, k := range t.largeOrder {
				if k == key {
					t.largeOrder = append(t.largeOrder[:i], t.largeOrder[i+1:]...)
					break
				}
			}
			t.stats.LargeInvalidations++
			hit = true
		}
	}
	return hit
}

// InvalidateRange drops the entries for every vpn in vpns, returning how
// many were resident.  It models the loop a ranged-shootdown IPI handler
// runs: one interrupt, many invlpg instructions.
func (t *refTLB) InvalidateRange(vpns []uint64) int {
	n := 0
	for _, vpn := range vpns {
		if t.Invalidate(vpn) {
			n++
		}
	}
	return n
}

// FlushAll empties the TLB (the model's full flush, e.g. CR3 reload).
func (t *refTLB) FlushAll() {
	t.stats.Flushes++
	for n := t.head.next; n != &t.tail; {
		next := n.next
		t.recycle(n)
		n = next
	}
	clear(t.entries)
	t.head.next = &t.tail
	t.tail.prev = &t.head
	clear(t.large)
	t.largeOrder = t.largeOrder[:0]
}

// LargeLen returns the number of resident superpage entries.
func (t *refTLB) LargeLen() int { return len(t.large) }

// Resident reports whether vpn is cached — by a base entry or a covering
// superpage entry — without touching recency or statistics.  Test helper.
func (t *refTLB) Resident(vpn uint64) bool {
	if _, ok := t.entries[vpn]; ok {
		return true
	}
	_, ok := t.large[vpn>>SuperSpanShift]
	return ok
}

// FrameOf returns the cached frame for vpn without touching recency or
// statistics, for invariant checks.
func (t *refTLB) FrameOf(vpn uint64) (uint64, bool) {
	if n, ok := t.entries[vpn]; ok {
		return n.frame, true
	}
	if le, ok := t.large[vpn>>SuperSpanShift]; ok {
		return le.frame + (vpn - le.baseVPN), true
	}
	return 0, false
}

func (t *refTLB) Stats() Stats { return t.stats }

// Key universes the op streams draw from.  Small ones make every op a
// tie (hit, re-insert, invalidate of a resident entry) and keep the table
// at capacity; k<<9 keys are what superpage bases and page-table-page
// strides look like, the worst case for a careless index hash.
var tlbKeyShapes = map[string]func(i int) uint64{
	"tie-heavy": func(i int) uint64 { return uint64(i % 6) },
	"dense":     func(i int) uint64 { return 0xC4000 + uint64(i) },
	"clustered": func(i int) uint64 { return uint64(i%40)<<SuperSpanShift + uint64(i/40) },
}

// runTLBProgram decodes prog as an op stream (opcode byte, key byte, ...)
// and applies it to a flat TLB and the reference side by side, requiring
// equal return values, Stats, Len and LargeLen after every step, and —
// which is what pins every LRU and FIFO victim — equal Resident/FrameOf
// over the whole key universe.
func runTLBProgram(t testing.TB, capacity int, key func(int) uint64, prog []byte) {
	t.Helper()
	got, want := New(capacity), newRefTLB(capacity)
	universe := make([]uint64, 256)
	for i := range universe {
		universe[i] = key(i)
	}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, k := prog[pc]%16, universe[prog[pc+1]]
		switch {
		case op < 5:
			gf, gok := got.Lookup(k)
			wf, wok := want.Lookup(k)
			if gf != wf || gok != wok {
				t.Fatalf("pc %d: Lookup(%#x) = %d,%v, want %d,%v", pc, k, gf, gok, wf, wok)
			}
		case op < 10:
			got.Insert(k, uint64(pc))
			want.Insert(k, uint64(pc))
		case op < 12:
			if g, w := got.Invalidate(k), want.Invalidate(k); g != w {
				t.Fatalf("pc %d: Invalidate(%#x) = %v, want %v", pc, k, g, w)
			}
		case op == 12:
			base := k &^ (SuperSpan - 1)
			got.InsertLarge(base, uint64(pc)<<SuperSpanShift)
			want.InsertLarge(base, uint64(pc)<<SuperSpanShift)
		case op == 13:
			n := int(prog[pc+1]) % 9
			vpns := make([]uint64, n)
			for i := range vpns {
				vpns[i] = universe[(int(prog[pc+1])+i*7)%len(universe)]
			}
			if g, w := got.InvalidateRange(vpns), want.InvalidateRange(vpns); g != w {
				t.Fatalf("pc %d: InvalidateRange(%#x) = %d, want %d", pc, vpns, g, w)
			}
		case op == 14 && prog[pc+1]%8 == 0:
			got.FlushAll()
			want.FlushAll()
		default: // a second helping of inserts keeps the table at capacity
			got.Insert(k, uint64(pc)+1)
			want.Insert(k, uint64(pc)+1)
		}
		if got.Stats() != want.Stats() || got.Len() != want.Len() || got.LargeLen() != want.LargeLen() {
			t.Fatalf("pc %d (op %d key %#x):\n got %+v len %d large %d\nwant %+v len %d large %d", pc, op, k,
				got.Stats(), got.Len(), got.LargeLen(), want.Stats(), want.Len(), want.LargeLen())
		}
		for _, u := range universe {
			gf, gok := got.FrameOf(u)
			wf, wok := want.FrameOf(u)
			if gf != wf || gok != wok || got.Resident(u) != want.Resident(u) {
				t.Fatalf("pc %d (op %d key %#x): FrameOf(%#x) = %d,%v, want %d,%v", pc, op, k, u, gf, gok, wf, wok)
			}
		}
	}
}

func TestTLBDifferential(t *testing.T) {
	for shape, key := range tlbKeyShapes {
		for _, capacity := range []int{1, 2, 3, 64} {
			rng := rand.New(rand.NewSource(int64(capacity)*131 + int64(len(shape))))
			prog := make([]byte, 2*6000)
			rng.Read(prog)
			runTLBProgram(t, capacity, key, prog)
		}
	}
}

func FuzzTLB(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{5, 1, 5, 2, 0, 1, 12, 3, 10, 3})
	f.Add(uint8(3), uint8(1), []byte{12, 0, 12, 40, 12, 80, 13, 5, 14, 0, 6, 9})
	f.Add(uint8(64), uint8(2), []byte{9, 200, 9, 201, 11, 200, 12, 200, 0, 200})
	shapes := []string{"tie-heavy", "dense", "clustered"}
	f.Fuzz(func(t *testing.T, capacity, shape uint8, prog []byte) {
		runTLBProgram(t, 1+int(capacity)%64, tlbKeyShapes[shapes[int(shape)%len(shapes)]], prog)
	})
}

// TestTLBSteadyStateAllocatesNothing: a TLB at capacity evicts in place,
// and superpage entries turn over in their fixed array — the pointer list
// recycled nodes but the order slice re-grew as it slid.
func TestTLBSteadyStateAllocatesNothing(t *testing.T) {
	tl := New(64)
	i := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		i++
		tl.Insert(i, i)
		tl.Lookup(i - 30)
		tl.InsertLarge(i<<SuperSpanShift, i)
		tl.Invalidate((i - 3) << SuperSpanShift)
		tl.Invalidate(i - 10)
	}); n != 0 {
		t.Fatalf("%v allocs per steady-state op, want 0", n)
	}
}
