// Package tlb models a per-CPU translation look-aside buffer.
//
// The model is deliberately honest about the property the paper's
// algorithms must preserve: a TLB caches translations and keeps serving
// them until it is explicitly invalidated or the entry is evicted for
// capacity.  Nothing here consults the page tables — if the operating
// system changes a mapping without invalidating, Lookup happily returns the
// stale frame, and (because the MMU model routes loads and stores through
// the returned frame) data corruption follows.  Tests rely on that to prove
// the sf_buf protocol's coherence logic rather than assume it.
//
// Shape: the base-page array is fully associative with LRU replacement,
// held in one flat fixed-capacity table (LRU, lru.go: an open-addressed
// index over slots linked by slot number, nothing allocated after New);
// the superpage array is a fixed FIFO array of LargeCap entries.  A lookup
// or fill is a hash probe and a few array writes — the model of a TLB
// should not cost more than the paper says an ephemeral mapping does.
package tlb

// Superpage geometry: a large TLB entry spans SuperSpan base pages (2 MB
// of 4 KB pages), the unit the amd64 direct map uses and the unit the
// simulated superpage promotion path collapses a contiguous run into.
const (
	// SuperSpanShift is log2 of the large-entry span in pages.
	SuperSpanShift = 9
	// SuperSpan is the large-entry span in base pages.
	SuperSpan = 1 << SuperSpanShift
)

// LargeCap bounds the separate large-entry array.  Real TLBs provide a
// handful of superpage entries beside the base-page array; eight is the
// Xeon-era data-TLB figure.
const LargeCap = 8

// Stats counts TLB events.
type Stats struct {
	Lookups       uint64
	Hits          uint64
	Misses        uint64
	Inserts       uint64
	Invalidations uint64 // explicit single-entry invalidations that hit
	Flushes       uint64
	Evictions     uint64 // capacity evictions

	// Large-entry (superpage) events.  A large hit also counts in Hits;
	// a large insert does not count in Inserts, so Inserts remains "base
	// TLB entries touched" — the per-page cost the promotion path avoids.
	LargeHits          uint64
	LargeInserts       uint64
	LargeInvalidations uint64
	LargeEvictions     uint64
}

// TLB is a fully-associative, LRU-replacement translation cache mapping
// virtual page numbers to physical frame numbers.  It is not safe for
// concurrent use; the owning CPU serializes access (including shootdown
// handlers) with its own lock.
type TLB struct {
	// base holds the base-page entries, vpn -> frame.
	base *LRU
	// large is the separate superpage array, a fixed FIFO: its first
	// nlarge entries, oldest first.  Each maps an aligned SuperSpan-page
	// window by arithmetic from its base frame.
	large  [LargeCap]largeEntry
	nlarge int
	stats  Stats
}

// largeEntry is one superpage translation: the window's first vpn and the
// frame mapped there; frames within the window follow by arithmetic,
// which is what makes one entry cover the whole span.
type largeEntry struct {
	baseVPN uint64
	frame   uint64
}

// New creates a TLB with the given entry capacity.
func New(capacity int) *TLB {
	return &TLB{base: NewLRU(capacity)}
}

// Len returns the number of resident entries.
func (t *TLB) Len() int { return t.base.Len() }

// findLarge returns the index in large of the entry covering vpn, or -1.
func (t *TLB) findLarge(vpn uint64) int {
	for i := range t.large[:t.nlarge] {
		if t.large[i].baseVPN == vpn&^(SuperSpan-1) {
			return i
		}
	}
	return -1
}

// dropLarge removes large[i], keeping the rest in FIFO order.
func (t *TLB) dropLarge(i int) {
	copy(t.large[i:], t.large[i+1:t.nlarge])
	t.nlarge--
}

// Lookup returns the cached frame for vpn, consulting the base-page array
// first and the superpage array second.  A base-page hit refreshes the
// entry's recency.  The returned frame may be stale with respect to the
// page tables; that is the point.
func (t *TLB) Lookup(vpn uint64) (frame uint64, ok bool) {
	t.stats.Lookups++
	if frame, ok = t.base.Get(vpn); ok {
		t.stats.Hits++
		return frame, true
	}
	if i := t.findLarge(vpn); i >= 0 {
		t.stats.Hits++
		t.stats.LargeHits++
		le := t.large[i]
		return le.frame + (vpn - le.baseVPN), true
	}
	t.stats.Misses++
	return 0, false
}

// Insert caches vpn -> frame, evicting the least recently used entry when
// at capacity.  Re-inserting an existing vpn updates the frame in place.
func (t *TLB) Insert(vpn, frame uint64) {
	t.stats.Inserts++
	if _, evicted := t.base.Put(vpn, frame); evicted {
		t.stats.Evictions++
	}
}

// InsertLarge caches one superpage translation: baseVPN (which must be
// SuperSpan-aligned) maps to frame, and every vpn in the window follows by
// arithmetic.  At capacity the oldest large entry is replaced (FIFO), as
// on hardware with a fixed superpage array.
func (t *TLB) InsertLarge(baseVPN, frame uint64) {
	if baseVPN&(SuperSpan-1) != 0 {
		panic("tlb: InsertLarge with unaligned base vpn")
	}
	i := t.findLarge(baseVPN)
	if i < 0 {
		if t.nlarge == LargeCap {
			t.dropLarge(0)
			t.stats.LargeEvictions++
		}
		i = t.nlarge
		t.nlarge++
	}
	t.large[i] = largeEntry{baseVPN: baseVPN, frame: frame}
	t.stats.LargeInserts++
}

// Invalidate drops the entry for vpn, reporting whether one was resident
// (the model's invlpg).  An invlpg for any page of a superpage window
// drops the whole large entry, exactly as hardware specifies.
func (t *TLB) Invalidate(vpn uint64) bool {
	hit := t.base.Delete(vpn)
	if hit {
		t.stats.Invalidations++
	}
	if i := t.findLarge(vpn); i >= 0 {
		t.dropLarge(i)
		t.stats.LargeInvalidations++
		hit = true
	}
	return hit
}

// InvalidateRange drops the entries for every vpn in vpns, returning how
// many were resident.  It models the loop a ranged-shootdown IPI handler
// runs: one interrupt, many invlpg instructions.
func (t *TLB) InvalidateRange(vpns []uint64) int {
	n := 0
	for _, vpn := range vpns {
		if t.Invalidate(vpn) {
			n++
		}
	}
	return n
}

// FlushAll empties the TLB (the model's full flush, e.g. CR3 reload).
func (t *TLB) FlushAll() {
	t.stats.Flushes++
	t.base.Clear()
	t.nlarge = 0
}

// LargeLen returns the number of resident superpage entries.
func (t *TLB) LargeLen() int { return t.nlarge }

// Resident reports whether vpn is cached — by a base entry or a covering
// superpage entry — without touching recency or statistics.  Test helper.
func (t *TLB) Resident(vpn uint64) bool {
	_, ok := t.FrameOf(vpn)
	return ok
}

// FrameOf returns the cached frame for vpn without touching recency or
// statistics, for invariant checks.
func (t *TLB) FrameOf(vpn uint64) (uint64, bool) {
	if frame, ok := t.base.Peek(vpn); ok {
		return frame, true
	}
	if i := t.findLarge(vpn); i >= 0 {
		le := t.large[i]
		return le.frame + (vpn - le.baseVPN), true
	}
	return 0, false
}

// Stats returns a copy of the event counters.
func (t *TLB) Stats() Stats { return t.stats }
