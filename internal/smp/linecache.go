package smp

import "sfbuf/internal/tlb"

// lineCache is a tiny LRU set of 64-byte cache-line tags used to model
// whether a page-table entry is resident in a CPU's data cache.  The paper
// measures a 2x cost difference between invalidating a mapping whose PTE is
// cached (~500 cycles on the Xeon) and one whose PTE must be fetched from
// memory (~1000 cycles); workloads that sweep large mapping ranges (dd over
// a 512 MB disk) pay the uncached cost, while tight reuse (the Section 3
// microbenchmark's single-page loop) pays the cached cost.
//
// It is a tlb.LRU keyed by line tag — the same flat fixed-capacity table
// the TLB keeps its base entries in — so a miss at capacity evicts in
// place and allocates nothing.
type lineCache struct{ lines *tlb.LRU }

// ptesPerLine is how many 8-byte PTEs share one 64-byte cache line.
const ptesPerLine = 8

func newLineCache(capacity int) lineCache {
	if capacity <= 0 {
		capacity = 1
	}
	return lineCache{lines: tlb.NewLRU(capacity)}
}

// lineTag maps a virtual page number to the cache-line tag of its PTE.
func lineTag(vpn uint64) uint64 { return vpn / ptesPerLine }

// touch records an access to vpn's PTE and reports whether its line was
// already resident.
func (lc lineCache) touch(vpn uint64) bool {
	hit, _ := lc.lines.Put(lineTag(vpn), 0)
	return hit
}
