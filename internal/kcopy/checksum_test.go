package kcopy

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/pmap"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// refByteSum is the byte-at-a-time loop Checksum and ChecksumRun ran
// before they summed through vm.PhysMem.Sum: the reference every sum they
// return must equal.
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

// FuzzByteSum holds Checksum and ChecksumRun, which sum through
// vm.PhysMem.Sum, to the byte loop over the bytes written.  The data
// starts at byte start of a fresh machine's first mapped page, so a span
// covers whole pages (which share interned blocks) and partial ones
// (which own); the seeds are vm.FuzzByteSum's, whose word-wide kernel the
// sum runs on: all-0xFF spans past one lane flush, lengths 0-9 and other
// non-multiples of 8, and unaligned starts.
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
		d = d[:min(len(d), 3*vm.PageSize)]
		m, pm, ctx := rig(t)
		mapPages(t, m, pm, ctx, 4)
		kva := base + uint64(start%vm.PageSize)
		if err := CopyIn(ctx, pm, kva, d); err != nil {
			t.Fatal(err)
		}
		want := refByteSum(d)
		for _, sum := range []func(*smp.Context, *pmap.Pmap, uint64, int) (uint32, error){Checksum, ChecksumRun} {
			got, err := sum(ctx, pm, kva, len(d))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("sum of %d bytes at page offset %d = %d, byte loop = %d", len(d), start%vm.PageSize, got, want)
			}
		}
	})
}

var sumSink uint32

// BenchmarkChecksum sums one whole mapped page: a page that shares an
// interned block (after the first call, its sum is the block table's) and
// a page that owns its buffer (summed every call).
func BenchmarkChecksum(b *testing.B) {
	m := smp.NewMachine(arch.XeonMP(), 8, true)
	pm := pmap.New(m)
	ctx := m.Ctx(0)
	data := make([]byte, vm.PageSize)
	rand.New(rand.NewSource(1)).Read(data)
	for i, tc := range []struct {
		name  string
		write func(*vm.Page)
	}{
		{"shared", func(pg *vm.Page) { m.Phys.Store(pg, 0, data) }},
		{"owned", func(pg *vm.Page) { copy(pg.Data(), data) }},
	} {
		pg, err := m.Phys.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		tc.write(pg)
		kva := base + uint64(i)*vm.PageSize
		pm.KEnter(ctx, kva, pg)
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(vm.PageSize)
			for b.Loop() {
				s, err := Checksum(ctx, pm, kva, vm.PageSize)
				if err != nil {
					b.Fatal(err)
				}
				sumSink += s
			}
		})
	}
}
