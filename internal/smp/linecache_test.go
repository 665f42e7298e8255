package smp

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
)

// refLineCache is the PTE-line cache as it was before it moved onto
// tlb.LRU: a Go map over a pointer-linked list, allocating a node per
// miss.  It is the specification the flat one is held to.
type refLineCache struct {
	capacity int
	lines    map[uint64]*refLCNode
	head     refLCNode
	tail     refLCNode
}

type refLCNode struct {
	tag        uint64
	prev, next *refLCNode
}

func newRefLineCache(capacity int) *refLineCache {
	lc := &refLineCache{capacity: capacity, lines: make(map[uint64]*refLCNode, capacity)}
	lc.head.next = &lc.tail
	lc.tail.prev = &lc.head
	return lc
}

func (lc *refLineCache) unlink(n *refLCNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (lc *refLineCache) pushFront(n *refLCNode) {
	n.next = lc.head.next
	n.prev = &lc.head
	lc.head.next.prev = n
	lc.head.next = n
}

func (lc *refLineCache) touch(vpn uint64) bool {
	tag := lineTag(vpn)
	if n, ok := lc.lines[tag]; ok {
		lc.unlink(n)
		lc.pushFront(n)
		return true
	}
	if len(lc.lines) >= lc.capacity {
		victim := lc.tail.prev
		lc.unlink(victim)
		delete(lc.lines, victim.tag)
	}
	n := &refLCNode{tag: tag}
	lc.lines[tag] = n
	lc.pushFront(n)
	return false
}

// TestLineCacheDifferential: the same vpn stream through both caches
// gives the same hit/miss answers and — checked as the resident set after
// every touch — evicts the same victims.
func TestLineCacheDifferential(t *testing.T) {
	shapes := map[string]func(r *rand.Rand) uint64{
		"tie-heavy": func(r *rand.Rand) uint64 { return uint64(r.Intn(4 * ptesPerLine)) },
		"sweep":     func(r *rand.Rand) uint64 { return 0xC4000 + uint64(r.Intn(600*ptesPerLine)) },
		"clustered": func(r *rand.Rand) uint64 { return uint64(r.Intn(90))<<9 + uint64(r.Intn(2*ptesPerLine)) },
	}
	for name, draw := range shapes {
		for _, capacity := range []int{1, 2, 3, 64} {
			rng := rand.New(rand.NewSource(int64(capacity) + int64(len(name))))
			got, want := newLineCache(capacity), newRefLineCache(capacity)
			seen := map[uint64]bool{}
			for step := 0; step < 8000; step++ {
				vpn := draw(rng)
				seen[lineTag(vpn)] = true
				if g, w := got.touch(vpn), want.touch(vpn); g != w {
					t.Fatalf("%s cap %d step %d: touch(%#x) = %v, want %v", name, capacity, step, vpn, g, w)
				}
				if got.lines.Len() != len(want.lines) {
					t.Fatalf("%s cap %d step %d: %d lines, want %d", name, capacity, step, got.lines.Len(), len(want.lines))
				}
				for tag := range seen {
					_, g := got.lines.Peek(tag)
					if _, w := want.lines[tag]; g != w {
						t.Fatalf("%s cap %d step %d: line %#x resident = %v, want %v", name, capacity, step, tag, g, w)
					}
				}
			}
		}
	}
}

// TestPTETouchesAllocateNothing: once a CPU has touched more lines than
// its PTE-line cache holds, every further miss used to be a heap
// allocation and a dead node.  Sweeps and ranged invalidations at
// capacity must allocate nothing.
func TestPTETouchesAllocateNothing(t *testing.T) {
	p := arch.XeonMPHTT()
	m := NewMachine(p, 16, false)
	ctx := m.Ctx(0)
	ctx.TouchPTESpan(0, (p.PTECacheLines+1)*ptesPerLine) // at capacity
	vpns := make([]uint64, 32)
	next := uint64(1 << 20)
	if n := testing.AllocsPerRun(200, func() {
		ctx.TouchPTESpan(next, 64*ptesPerLine) // 64 line misses, 64 evictions
		for i := range vpns {
			vpns[i] = next + uint64(i*ptesPerLine)
			fillTLB(ctx, vpns[i], 1)
		}
		ctx.InvalidateLocalRange(vpns)
		ctx.TouchPTERange(vpns)
		next += 1 << 12
	}); n != 0 {
		t.Fatalf("%v allocs per pass over a full PTE-line cache, want 0", n)
	}
}
