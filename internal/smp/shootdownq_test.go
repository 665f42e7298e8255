package smp

import (
	"sync"
	"testing"

	"sfbuf/internal/arch"
)

// queueOne queues a single invalidation through the bulk enqueue.
func queueOne(ctx *Context, targets CPUSet, vpn uint64) {
	ctx.QueueShootdownBatch([]CPUSet{targets}, []uint64{vpn})
}

func TestQueueShootdownDefersUntilFlush(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 16, false)
	ctx := m.Ctx(0)
	// Give CPU 2 a TLB entry for vpn 7, then queue its invalidation.
	fillTLB(m.Ctx(2), 7, 70)
	queueOne(ctx, CPUSet(0).Set(2), 7)
	if !m.CPU(2).TLBResident(7) {
		t.Fatal("queueing must not invalidate anything yet")
	}
	if got := ctx.PendingShootdowns(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != 0 {
		t.Fatalf("remote rounds before flush = %d, want 0", got)
	}
	if n := ctx.FlushShootdowns(); n != 1 {
		t.Fatalf("flush retired %d, want 1", n)
	}
	if m.CPU(2).TLBResident(7) {
		t.Fatal("flush must invalidate the queued line")
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != 1 {
		t.Fatalf("remote rounds after flush = %d, want 1", got)
	}
}

func TestFlushCoalescesIntoOneRound(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 64, false)
	ctx := m.Ctx(0)
	all := m.AllCPUs()
	for vpn := uint64(0); vpn < 10; vpn++ {
		for cpu := 1; cpu < m.NumCPUs(); cpu++ {
			fillTLB(m.Ctx(cpu), vpn, vpn+100)
		}
		queueOne(ctx, all.Clear(0), vpn)
	}
	ctx.FlushShootdowns()
	c := m.SnapshotCounters()
	if c.RemoteInvIssued != 1 {
		t.Fatalf("remote rounds = %d, want 1 for the whole batch", c.RemoteInvIssued)
	}
	if want := uint64(m.NumCPUs() - 1); c.IPIsDelivered != want {
		t.Fatalf("IPIs = %d, want %d (one per remote CPU)", c.IPIsDelivered, want)
	}
	if c.BatchedFlushes != 1 || c.BatchedInv != 10 {
		t.Fatalf("batched counters = %d flushes / %d inv, want 1/10", c.BatchedFlushes, c.BatchedInv)
	}
	for vpn := uint64(0); vpn < 10; vpn++ {
		for cpu := 1; cpu < m.NumCPUs(); cpu++ {
			if m.CPU(cpu).TLBResident(vpn) {
				t.Fatalf("cpu %d still caches vpn %d after flush", cpu, vpn)
			}
		}
	}
}

func TestQueueThresholdForcesFlush(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 64, false)
	m.SetShootdownBatch(4)
	ctx := m.Ctx(0)
	for vpn := uint64(0); vpn < 3; vpn++ {
		queueOne(ctx, CPUSet(0).Set(1), vpn)
	}
	if got := ctx.PendingShootdowns(); got != 3 {
		t.Fatalf("pending = %d, want 3 below threshold", got)
	}
	queueOne(ctx, CPUSet(0).Set(1), 3)
	if got := ctx.PendingShootdowns(); got != 0 {
		t.Fatalf("pending = %d, want 0 after threshold flush", got)
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != 1 {
		t.Fatalf("remote rounds = %d, want 1", got)
	}
}

func TestQueueSelfTargetPurgesLocally(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx := m.Ctx(0)
	fillTLB(ctx, 5, 50)
	queueOne(ctx, CPUSet(0).Set(0), 5)
	ctx.FlushShootdowns()
	if m.CPU(0).TLBResident(5) {
		t.Fatal("flush must purge the flushing CPU's own queued lines")
	}
	if got := m.Counters().LocalInv.Load(); got != 1 {
		t.Fatalf("local invalidations = %d, want 1", got)
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != 0 {
		t.Fatalf("remote rounds = %d, want 0 for a self-only entry", got)
	}
}

func TestQueueEmptyTargetsDropped(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx := m.Ctx(0)
	queueOne(ctx, 0, 9)
	if got := ctx.PendingShootdowns(); got != 0 {
		t.Fatalf("pending = %d, want 0 for empty targets", got)
	}
	if n := ctx.FlushShootdowns(); n != 0 {
		t.Fatalf("flush retired %d, want 0", n)
	}
}

func TestQueuesArePerCPU(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx0, ctx1 := m.Ctx(0), m.Ctx(1)
	queueOne(ctx0, CPUSet(0).Set(1), 1)
	queueOne(ctx1, CPUSet(0).Set(0), 2)
	if ctx0.PendingShootdowns() != 1 || ctx1.PendingShootdowns() != 1 {
		t.Fatal("queues must be per CPU")
	}
	ctx0.FlushShootdowns()
	if ctx1.PendingShootdowns() != 1 {
		t.Fatal("flushing CPU 0 must not drain CPU 1's queue")
	}
}

func TestQueueShootdownBatchBulkEnqueue(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 64, false)
	ctx := m.Ctx(0)
	targets := []CPUSet{CPUSet(0).Set(1), 0, CPUSet(0).Set(2).Set(3)}
	vpns := []uint64{11, 12, 13}
	ctx.QueueShootdownBatch(targets, vpns)
	if got := ctx.PendingShootdowns(); got != 2 {
		t.Fatalf("pending = %d, want 2 (empty-target pair dropped)", got)
	}
	fillTLB(m.Ctx(1), 11, 1)
	fillTLB(m.Ctx(3), 13, 3)
	ctx.FlushShootdowns()
	if m.CPU(1).TLBResident(11) || m.CPU(3).TLBResident(13) {
		t.Fatal("bulk-enqueued lines must be invalidated on flush")
	}
	if got := m.Counters().RemoteInvIssued.Load(); got != 1 {
		t.Fatalf("remote rounds = %d, want 1", got)
	}
}

func TestInvalidateLocalRange(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	ctx := m.Ctx(0)
	vpns := []uint64{1, 2, 3}
	for _, vpn := range vpns {
		fillTLB(ctx, vpn, vpn+10)
	}
	ctx.InvalidateLocalRange(vpns)
	for _, vpn := range vpns {
		if m.CPU(0).TLBResident(vpn) {
			t.Fatalf("vpn %d survived the ranged local purge", vpn)
		}
	}
	if got := m.Counters().LocalInv.Load(); got != 3 {
		t.Fatalf("local invalidations = %d, want 3 (counted per page)", got)
	}
	before := m.CPU(0).Cycles()
	ctx.InvalidateLocalRange(nil)
	if m.CPU(0).Cycles() != before {
		t.Fatal("empty range must be free")
	}
}

func TestShootdownBatchConfiguration(t *testing.T) {
	m := NewMachine(arch.XeonMP(), 16, false)
	if got := m.ShootdownBatch(); got != DefaultShootdownBatch {
		t.Fatalf("default batch = %d, want %d", got, DefaultShootdownBatch)
	}
	m.SetShootdownBatch(7)
	if got := m.ShootdownBatch(); got != 7 {
		t.Fatalf("batch = %d, want 7", got)
	}
	m.SetShootdownBatch(0)
	if got := m.ShootdownBatch(); got != DefaultShootdownBatch {
		t.Fatalf("batch = %d, want default restored", got)
	}
}

// TestSameCPUFlushRace: two kernel threads pinned to one CPU queue and
// flush its shootdown queue concurrently — the case the queue's mutex
// exists for.  Every queued entry must be retired exactly once (BatchedInv
// and LocalInv count each one), and the recycled pending and vpn slices
// must never be handed to two flushes at once: under -race a shared
// slice is a reported race, and without it a lost or doubled entry moves
// the counts.
func TestSameCPUFlushRace(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 16, false)
	m.SetShootdownBatch(8)
	const threads, rounds, perRound = 2, 400, 5
	self := CPUSet(0).Set(0)
	masks := []CPUSet{self, CPUSet(0).Set(1).Set(2), self.Set(3)}
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := m.Ctx(0)
			targets := make([]CPUSet, perRound)
			vpns := make([]uint64, perRound)
			for r := 0; r < rounds; r++ {
				for i := range vpns {
					targets[i] = masks[(r+i)%len(masks)]
					vpns[i] = uint64(g<<20 | r*perRound + i)
				}
				ctx.QueueShootdownBatch(targets, vpns)
				if r%3 == g {
					ctx.FlushShootdowns()
				}
			}
		}(g)
	}
	wg.Wait()
	m.Ctx(0).FlushShootdowns()

	queued, local := uint64(0), uint64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			queued++
			if masks[(r+i)%len(masks)].Has(0) {
				local++
			}
		}
	}
	queued *= threads
	local *= threads
	c := m.SnapshotCounters()
	if c.BatchedInv != queued {
		t.Fatalf("BatchedInv = %d, want %d entries queued", c.BatchedInv, queued)
	}
	if c.LocalInv != local {
		t.Fatalf("LocalInv = %d, want %d self-targeted entries", c.LocalInv, local)
	}
	if n := m.Ctx(0).PendingShootdowns(); n != 0 {
		t.Fatalf("%d entries left pending after the final flush", n)
	}
	q := m.sdq[0]
	if cap(q.pending) > 0 && cap(q.spare) > 0 && &q.pending[:1][0] == &q.spare[:1][0] {
		t.Fatal("the pending queue and its spare share one array")
	}
}

// BenchmarkFlushShootdowns: one queued batch of 64 entries on a 4-CPU
// Xeon-MP-HTT, half of them targeting the flushing CPU and half only
// remote CPUs, drained by one flush per op.
func BenchmarkFlushShootdowns(b *testing.B) {
	m := NewMachine(arch.XeonMPHTT(), 16, false)
	m.SetShootdownBatch(1 << 30)
	ctx := m.Ctx(0)
	const n = 64
	targets := make([]CPUSet, n)
	vpns := make([]uint64, n)
	for i := range vpns {
		vpns[i] = uint64(i)
		targets[i] = CPUSet(0).Set(1).Set(2).Set(3)
		if i%2 == 0 {
			targets[i] = CPUSet(0).Set(0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.QueueShootdownBatch(targets, vpns)
		ctx.FlushShootdowns()
	}
}
