package smp

import (
	"testing"

	"sfbuf/internal/arch"
)

func TestQueueShootdownDefersUntilFlush(t *testing.T) {
	m := NewMachine(arch.XeonMPHTT(), 16, false)
	ctx := m.Ctx(0)
	// Give CPU 2 a TLB entry for vpn 7, then queue its invalidation.
	fillTLB(m.Ctx(2), 7, 70)
	ctx.QueueShootdown(CPUSet(0).Set(2), 7)
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
		ctx.QueueShootdown(all.Clear(0), vpn)
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
		ctx.QueueShootdown(CPUSet(0).Set(1), vpn)
	}
	if got := ctx.PendingShootdowns(); got != 3 {
		t.Fatalf("pending = %d, want 3 below threshold", got)
	}
	ctx.QueueShootdown(CPUSet(0).Set(1), 3)
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
	ctx.QueueShootdown(CPUSet(0).Set(0), 5)
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
	ctx.QueueShootdown(0, 9)
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
	ctx0.QueueShootdown(CPUSet(0).Set(1), 1)
	ctx1.QueueShootdown(CPUSet(0).Set(0), 2)
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
