package kcopy

import (
	"math/rand"
	"testing"

	"sfbuf/internal/vm"
)

// refByteSum is the byte-at-a-time loop Checksum and ChecksumRun ran
// before byteSum: the reference the word-wide kernel must equal.
func refByteSum(d []byte) uint32 {
	var sum uint32
	for _, b := range d {
		sum += uint32(b)
	}
	return sum
}

// TestChecksumRunWindowOddOffset sums a span that starts at an odd
// offset inside a contiguous run window, cold and then warm, through both
// entry points.  The sums must agree with each other and with the byte
// loop over the bytes written, and the cycles each call charges must be
// the ones captured on the commit that still ran the byte loop: the
// kernel got faster on the host, not cheaper in the model.
func TestChecksumRunWindowOddOffset(t *testing.T) {
	m, pm, ctx, sf, pages := runRig(t)
	run, err := sf.AllocRun(ctx, pages, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.FreeRun(ctx, run)
	if !run.Contiguous() {
		t.Fatal("setup: run window is not contiguous")
	}
	data := make([]byte, len(pages)*vm.PageSize)
	rand.New(rand.NewSource(11)).Read(data)
	if err := CopyInRun(ctx, pm, run, 0, data); err != nil {
		t.Fatal(err)
	}

	const off, n = 3*vm.PageSize/2 + 13, 3*vm.PageSize + 1001
	want := refByteSum(data[off : off+n])
	charged := func(f func() (uint32, error)) int64 {
		t.Helper()
		before := m.CPU(0).Cycles()
		sum, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if sum != want {
			t.Fatalf("sum = %d, want %d", sum, want)
		}
		return int64(m.CPU(0).Cycles() - before)
	}
	perPage := func() (uint32, error) { return Checksum(ctx, pm, run.Base()+off, n) }
	ranged := func() (uint32, error) { return ChecksumRun(ctx, pm, run.Base()+off, n) }

	ctx.FlushLocalTLB()
	coldPerPage := charged(perPage)
	warmPerPage := charged(perPage)
	ctx.FlushLocalTLB()
	coldRanged := charged(ranged)
	warmRanged := charged(ranged)

	got := [4]int64{coldPerPage, warmPerPage, coldRanged, warmRanged}
	want4 := [4]int64{12680, 11960, 12140, 11960}
	if got != want4 {
		t.Fatalf("charged cycles {cold Checksum, warm Checksum, cold ChecksumRun, warm ChecksumRun} = %v, want %v", got, want4)
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
	rnd := make([]byte, vm.PageSize)
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
	d := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(1)).Read(d)
	b.SetBytes(int64(len(d)))
	for i := 0; i < b.N; i++ {
		sumSink += byteSum(d)
	}
}
