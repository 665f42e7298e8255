package vm

import (
	"math/rand"
	"sync"
	"testing"
)

// refByteSum is the byte-at-a-time loop the checksum path ran before
// byteSum: the reference the word-wide kernel and PhysMem.Sum must equal.
func refByteSum(d []byte) uint32 {
	var sum uint32
	for _, b := range d {
		sum += uint32(b)
	}
	return sum
}

// checkSum holds pm.Sum to the byte loop over p.View() on the whole page
// and on the span [off, off+n), and the table's sums to one per block.
func checkSum(t *testing.T, pm *PhysMem, p *Page, off, n int) {
	t.Helper()
	view := p.View()
	if view == nil {
		view = make([]byte, PageSize)
	}
	for _, s := range [][2]int{{0, PageSize}, {off, n}} {
		if got, want := pm.Sum(p, s[0], s[1]), refByteSum(view[s[0]:s[0]+s[1]]); got != want {
			_, shared := block(p)
			t.Fatalf("frame %d (storage %v, shared %v): Sum(%d, %d) = %d, byte loop %d",
				p.Frame(), p.View() != nil, shared, s[0], s[1], got, want)
		}
	}
	pm.blocks.mu.Lock()
	defer pm.blocks.mu.Unlock()
	if len(pm.blocks.sums) > pm.blocks.n {
		t.Fatalf("the table holds %d sums for %d blocks", len(pm.blocks.sums), pm.blocks.n)
	}
}

// TestSumFollowsStorageState walks one pair of pages through every
// storage state and transition, summing whole and partial spans after
// each step.
func TestSumFollowsStorageState(t *testing.T) {
	pm := NewPhysMem(64, true)
	a, _ := pm.Alloc()
	b, _ := pm.Alloc()
	check := func(step string) {
		t.Helper()
		t.Run(step, func(t *testing.T) {
			for _, p := range []*Page{a, b} {
				for _, s := range [][2]int{{0, 1}, {1, PageSize - 1}, {100, 1460}, {PageSize - 7, 7}} {
					checkSum(t, pm, p, s[0], s[1])
				}
			}
		})
	}
	check("no storage")
	pm.Store(a, 0, pattern(3))
	pm.Store(b, 0, pattern(3))
	check("one shared block")
	pm.Store(a, 17, []byte{1, 2, 3})
	check("partial store into one sharer")
	pm.Store(b, 0, make([]byte, PageSize))
	check("zero store into a sharer")
	pm.Free(a)
	pm.Free(b)
	check("freed")
}

// FuzzPageSum drives a few pages of a buddy pool through a byte-coded
// sequence of stores (whole-page patterns from a small set, so pages
// share blocks; zeros; partial), writes through Data and frees, and
// after every op holds PhysMem.Sum to the byte loop over
// View on every live page, over the whole page and a span the op chooses.
func FuzzPageSum(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 3, 0, 4, 0})
	f.Add([]byte{0, 1, 0x20, 1, 2, 3, 5, 1, 4, 2, 0x31, 0, 1, 1})
	f.Add([]byte{0x40, 0, 0x41, 7, 0x02, 9, 0x03, 0x30, 0x13, 0x20, 0x04, 0x11, 0x05})
	seq := make([]byte, 96)
	rand.New(rand.NewSource(1)).Read(seq)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const live = 4
		pm := NewPhysMem(64, true)
		pages := make([]*Page, live)
		for i := range pages {
			pages[i], _ = pm.Alloc()
		}
		rnd := rand.New(rand.NewSource(int64(len(ops))))
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			p := pages[int(op>>4)%live]
			off := int(arg) * 13 % PageSize
			n := 1 + int(arg)*151%(PageSize-off)
			switch op % 6 {
			case 0, 1: // whole-page store of one of three patterns
				pm.Store(p, 0, pattern(arg%3+1))
			case 2:
				pm.Store(p, 0, make([]byte, PageSize))
			case 3:
				src := make([]byte, n)
				rnd.Read(src)
				pm.Store(p, off, src)
			case 4:
				p.Data()[off] ^= arg | 1
			case 5:
				pm.Free(p)
				pages[int(op>>4)%live], _ = pm.Alloc()
			}
			for _, q := range pages {
				checkSum(t, pm, q, off, n)
			}
		}
	})
}

// TestConcurrentFirstSums races the first sums of shared blocks against
// each other and against whole-page stores that intern new blocks, under
// the table's one mutex: every sum must equal the byte loop.
func TestConcurrentFirstSums(t *testing.T) {
	const blocks, sharers = 8, 4
	pm := NewPhysMem(blocks*sharers+blocks, true)
	var pages []*Page
	for i := 0; i < blocks*sharers; i++ {
		p, _ := pm.Alloc()
		pm.Store(p, 0, pattern(byte(i%blocks)+1))
		pages = append(pages, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < sharers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(pages); i += sharers {
				p := pages[i]
				if got, want := pm.Sum(p, 0, PageSize), refByteSum(p.View()); got != want {
					t.Errorf("page %d: Sum = %d, byte loop %d", i, got, want)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < blocks; i++ {
			p, _ := pm.Alloc()
			pm.Store(p, 0, pattern(byte(i)+0x80))
		}
	}()
	wg.Wait()
	if len(pm.blocks.sums) != blocks {
		t.Fatalf("the table holds %d sums, want one per summed block (%d)", len(pm.blocks.sums), blocks)
	}
}

// FuzzByteSum holds the word-wide kernel to the byte loop.  The seeds
// cover what the SWAR lanes can get wrong: all-0xFF buffers longer than
// one lane flush (a lane that is flushed late overflows), lengths 0-9
// and other non-multiples of 8 (the byte tail), and unaligned starts.
func FuzzByteSum(f *testing.F) {
	ff := make([]byte, 3*1024+5)
	for i := range ff {
		ff[i] = 0xFF
	}
	for n := 0; n <= 9; n++ {
		f.Add(ff[:n], 0)
	}
	for _, n := range []int{1023, 1024, 1025, 1031, 1032, 2048, 2049, len(ff)} {
		f.Add(ff[:n], 0)
		f.Add(ff[:n], 3)
	}
	rnd := make([]byte, PageSize)
	rand.New(rand.NewSource(3)).Read(rnd)
	f.Add(rnd, 0)
	f.Add(rnd, 1)
	f.Add(rnd[:1460], 7)
	f.Fuzz(func(t *testing.T, data []byte, start int) {
		if start < 0 || start > len(data) {
			start = 0
		}
		d := data[start:]
		if got, want := byteSum(d), refByteSum(d); got != want {
			t.Fatalf("byteSum(len %d, start %d) = %d, byte loop = %d", len(d), start, got, want)
		}
	})
}

var sumSink uint32

func BenchmarkByteSum(b *testing.B) {
	d := make([]byte, PageSize)
	rand.New(rand.NewSource(1)).Read(d)
	b.SetBytes(int64(len(d)))
	for i := 0; i < b.N; i++ {
		sumSink += byteSum(d)
	}
}
