package tlb

import "math/bits"

// LRU is a fixed-capacity uint64 -> uint64 table with least-recently-used
// replacement, laid out in flat arrays: an open-addressed index (linear
// probing, backward-shift delete) over a slab of slots whose recency list
// is linked by slot number.  Nothing is allocated after NewLRU.  It backs
// both the TLB's base-page entries and package smp's PTE-line cache; like
// them it is not safe for concurrent use.
type LRU struct {
	// slots[0] is the recency list's sentinel: its next is the most and
	// its prev the least recently used slot.  Slots 1..capacity hold
	// entries; vacant ones are chained through next from free.
	slots []lruSlot
	free  int32
	n     int
	// index maps a key's hash to its slot number, 0 meaning empty.  It is
	// kept at most half full, so probe runs stay short.
	index []int32
	shift uint
}

type lruSlot struct {
	key, val   uint64
	prev, next int32
}

// NewLRU creates a table holding at most capacity entries.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	logSize := bits.Len(uint(2*capacity - 1))
	l := &LRU{
		slots: make([]lruSlot, capacity+1),
		index: make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
	}
	l.Clear()
	return l
}

// Len returns the number of resident entries.
func (l *LRU) Len() int { return l.n }

// home is the index position a key probes from (Fibonacci hashing: the
// dense and k<<9-strided keys page numbers form spread over the table).
func (l *LRU) home(key uint64) int { return int(key * 0x9E3779B97F4A7C15 >> l.shift) }

// find returns key's slot and index position; slot 0 means absent, and
// pos is then the empty position an insert would take.
func (l *LRU) find(key uint64) (slot int32, pos int) {
	mask := len(l.index) - 1
	for pos = l.home(key); ; pos = (pos + 1) & mask {
		s := l.index[pos]
		if s == 0 || l.slots[s].key == key {
			return s, pos
		}
	}
}

func (l *LRU) unlink(s int32) {
	e := &l.slots[s]
	l.slots[e.prev].next = e.next
	l.slots[e.next].prev = e.prev
}

func (l *LRU) pushFront(s int32) {
	first := l.slots[0].next
	l.slots[s].prev, l.slots[s].next = 0, first
	l.slots[first].prev = s
	l.slots[0].next = s
}

// Peek returns key's value without refreshing its recency.
func (l *LRU) Peek(key uint64) (val uint64, ok bool) {
	s, _ := l.find(key)
	return l.slots[s].val, s != 0
}

// Get returns key's value and makes the entry the most recently used.
func (l *LRU) Get(key uint64) (val uint64, ok bool) {
	s, _ := l.find(key)
	if s == 0 {
		return 0, false
	}
	if l.slots[0].next != s {
		l.unlink(s)
		l.pushFront(s)
	}
	return l.slots[s].val, true
}

// Put stores key -> val as the most recently used entry.  hit reports
// that key was already resident (its value is replaced); otherwise the
// entry is new, and evicted reports that the table was at capacity and
// the least recently used entry made room for it.
func (l *LRU) Put(key, val uint64) (hit, evicted bool) {
	s, pos := l.find(key)
	if s != 0 {
		l.slots[s].val = val
		if l.slots[0].next != s {
			l.unlink(s)
			l.pushFront(s)
		}
		return true, false
	}
	if l.free == 0 {
		evicted = l.Delete(l.slots[l.slots[0].prev].key)
		_, pos = l.find(key) // the backward shift may have moved the run
	}
	s = l.free
	l.free = l.slots[s].next
	l.slots[s].key, l.slots[s].val = key, val
	l.index[pos] = s
	l.pushFront(s)
	l.n++
	return false, evicted
}

// Delete drops key's entry, reporting whether one was resident.
func (l *LRU) Delete(key uint64) bool {
	s, pos := l.find(key)
	if s == 0 {
		return false
	}
	l.unlink(s)
	l.slots[s].next = l.free
	l.free = s
	l.n--
	// Backward-shift delete: close the hole by moving up every later
	// entry of the probe run whose home position is not past the hole.
	mask := len(l.index) - 1
	for next := (pos + 1) & mask; l.index[next] != 0; next = (next + 1) & mask {
		if h := l.home(l.slots[l.index[next]].key); (next-h)&mask >= (next-pos)&mask {
			l.index[pos] = l.index[next]
			pos = next
		}
	}
	l.index[pos] = 0
	return true
}

// Clear empties the table.
func (l *LRU) Clear() {
	clear(l.index)
	l.slots[0].prev, l.slots[0].next = 0, 0
	for s := range l.slots[1:] {
		l.slots[s+1].next = int32(s + 2)
	}
	l.slots[len(l.slots)-1].next = 0
	l.free, l.n = 1, 0
}
