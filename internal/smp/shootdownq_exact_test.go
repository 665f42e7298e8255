package smp

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
)

// refFlushShootdowns is the per-page flush FlushShootdowns replaced: one
// InvalidateLocal per self-targeted entry, in batch order, then the same
// ranged remote round.  It is the reference the ranged local pass must
// match charge for charge, counter for counter and line for line.
func refFlushShootdowns(c *Context) int {
	q := c.m.sdq[c.cpu.ID]
	q.mu.Lock()
	batch := q.pending
	q.pending = nil
	q.mu.Unlock()
	if len(batch) == 0 {
		return 0
	}
	var remote CPUSet
	var vpns []uint64
	self := c.cpu.ID
	for _, p := range batch {
		if p.targets.Has(self) {
			c.InvalidateLocal(p.vpn)
		}
		if rt := p.targets.Clear(self); !rt.Empty() {
			remote = remote.Union(rt)
			vpns = append(vpns, p.vpn)
		}
	}
	if len(vpns) > 0 {
		c.ShootdownRange(remote, vpns)
	}
	c.m.counters.BatchedFlushes.Add(1)
	c.m.counters.BatchedInv.Add(uint64(len(batch)))
	return len(batch)
}

// exactUniverse is the vpn range the exactness harness draws from: six
// PTE lines, so repeats and line sharing are common.
const exactUniverse = 6 * ptesPerLine

// tinyPTEPlatform is Xeon-MP-HTT with a two-line PTE cache and an 8-entry
// TLB, so the cached/uncached split and TLB evictions run under capacity
// pressure.
func tinyPTEPlatform() arch.Platform {
	p := arch.XeonMPHTT()
	p.PTECacheLines = 2
	p.TLBEntries = 8
	return p
}

// exactPair is two identical machines: got flushes with FlushShootdowns,
// want with refFlushShootdowns.
type exactPair struct{ got, want *Machine }

func newExactPair(p arch.Platform, sockets int) exactPair {
	mk := func() *Machine {
		m := NewMachine(p, 16, false)
		m.SetTopology(sockets)
		// Flushes happen only where the harness asks for them.
		m.SetShootdownBatch(1 << 30)
		return m
	}
	return exactPair{got: mk(), want: mk()}
}

func (x exactPair) each(f func(m *Machine)) { f(x.got); f(x.want) }

func (x exactPair) queue(cpu int, targets CPUSet, vpn uint64) {
	x.each(func(m *Machine) {
		m.Ctx(cpu).QueueShootdownBatch([]CPUSet{targets & m.AllCPUs()}, []uint64{vpn})
	})
}

func (x exactPair) fill(cpu int, vpn uint64) {
	x.each(func(m *Machine) { fillTLB(m.Ctx(cpu), vpn, vpn+1000) })
}

func (x exactPair) touch(cpu int, vpn uint64, n int) {
	x.each(func(m *Machine) { m.Ctx(cpu).TouchPTESpan(vpn, n) })
}

// flush drains cpu's queue on both machines and fails on any difference
// in what the flush retired, charged, counted or left cached.
func (x exactPair) flush(t testing.TB, cpu int) {
	t.Helper()
	g, w := x.got.Ctx(cpu).FlushShootdowns(), refFlushShootdowns(x.want.Ctx(cpu))
	if g != w {
		t.Fatalf("cpu %d flush retired %d, per-page reference %d", cpu, g, w)
	}
	x.requireSame(t)
}

// requireSame compares everything a flush can move: every CPU's cycles,
// every Counters field, every CPU's TLB statistics, and, over the
// universe, TLB residency and frames and PTE-line residency.
func (x exactPair) requireSame(t testing.TB) {
	t.Helper()
	if g, w := x.got.SnapshotCounters(), x.want.SnapshotCounters(); g != w {
		t.Fatalf("counters:\n got  %+v\n want %+v", g, w)
	}
	for id := 0; id < x.got.NumCPUs(); id++ {
		gc, wc := x.got.CPU(id), x.want.CPU(id)
		if g, w := gc.Cycles(), wc.Cycles(); g != w {
			t.Fatalf("cpu %d cycles %d, per-page reference %d", id, g, w)
		}
		if g, w := gc.TLBStats(), wc.TLBStats(); g != w {
			t.Fatalf("cpu %d TLB stats:\n got  %+v\n want %+v", id, g, w)
		}
		for vpn := uint64(0); vpn < exactUniverse; vpn++ {
			gf, gok := gc.TLBFrameOf(vpn)
			wf, wok := wc.TLBFrameOf(vpn)
			if gf != wf || gok != wok {
				t.Fatalf("cpu %d vpn %d TLB (%d,%v), per-page reference (%d,%v)", id, vpn, gf, gok, wf, wok)
			}
			if vpn%ptesPerLine == 0 {
				_, gl := gc.pteCache.lines.Peek(lineTag(vpn))
				_, wl := wc.pteCache.lines.Peek(lineTag(vpn))
				if gl != wl {
					t.Fatalf("cpu %d PTE line %d resident %v, per-page reference %v", id, lineTag(vpn), gl, wl)
				}
			}
		}
	}
}

// runExactOps decodes ops three bytes at a time — (kind, a, b) — into
// TLB fills, PTE-cache warming, queued entries and flushes on a pair of
// machines, comparing the two after every flush and after a final drain
// of every CPU.
func runExactOps(t testing.TB, p arch.Platform, sockets int, ops []byte) {
	x := newExactPair(p, sockets)
	n := p.NumCPUs
	for len(ops) >= 3 {
		kind, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		vpn, cpu := uint64(a)%exactUniverse, int(b)%n
		switch kind % 5 {
		case 0, 1:
			x.queue(int(b>>4)%n, CPUSet(b), vpn)
		case 2:
			x.fill(cpu, vpn)
		case 3:
			x.touch(cpu, vpn, 1+int(b>>4))
		case 4:
			x.flush(t, cpu)
		}
	}
	for cpu := 0; cpu < n; cpu++ {
		x.flush(t, cpu)
	}
}

// TestFlushShootdownsMatchesPerPage holds the ranged local pass to the
// per-page flush it replaced on self-only, remote-only and mixed queues,
// repeated vpns, a PTE cache and TLB under capacity pressure, and a
// two-socket machine.
func TestFlushShootdownsMatchesPerPage(t *testing.T) {
	type entry struct {
		targets CPUSet
		vpn     uint64
	}
	self, remote := CPUSet(0).Set(0), CPUSet(0).Set(1).Set(3)
	mixed := self.Union(remote)
	seq := func(targets CPUSet, vpns ...uint64) []entry {
		var es []entry
		for _, v := range vpns {
			es = append(es, entry{targets, v})
		}
		return es
	}
	stride := func(n, step int) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(i*step) % exactUniverse
		}
		return vs
	}
	cases := []struct {
		name    string
		plat    arch.Platform
		sockets int
		queue   []entry
	}{
		{"self-only", arch.XeonMPHTT(), 1, seq(self, stride(20, 1)...)},
		{"remote-only", arch.XeonMPHTT(), 1, seq(remote, stride(20, 1)...)},
		{"mixed", arch.XeonMPHTT(), 1, append(seq(mixed, stride(12, 3)...), seq(self, 5, 6, 7)...)},
		{"repeated-vpns", arch.XeonMPHTT(), 1, seq(mixed, 4, 4, 9, 4, 9, 9, 40, 4)},
		{"tiny-pte-self", tinyPTEPlatform(), 1, seq(self, stride(30, ptesPerLine+1)...)},
		{"tiny-pte-mixed", tinyPTEPlatform(), 1, append(seq(mixed, stride(24, 7)...), seq(remote, stride(9, 5)...)...)},
		{"two-sockets", arch.XeonNUMA(2, 2), 2, append(seq(mixed, stride(16, 3)...), seq(CPUSet(0).Set(2), 1, 2)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := newExactPair(tc.plat, tc.sockets)
			for id := 0; id < tc.plat.NumCPUs; id++ {
				for vpn := uint64(0); vpn < exactUniverse; vpn += 2 {
					x.fill(id, vpn)
				}
			}
			x.touch(0, 3*ptesPerLine, ptesPerLine)
			for round := 0; round < 2; round++ {
				for _, e := range tc.queue {
					x.queue(0, e.targets, e.vpn)
				}
				x.flush(t, 0)
			}
		})
	}
}

// TestFlushShootdownsMatchesPerPageRandom runs seeded random op streams
// through the exactness harness on the full-size and the tiny platform.
func TestFlushShootdownsMatchesPerPageRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 3*(1+rng.Intn(80)))
		rng.Read(ops)
		plat := arch.XeonMPHTT()
		if i%2 == 1 {
			plat = tinyPTEPlatform()
		}
		runExactOps(t, plat, 1, ops)
	}
}

// FuzzFlushShootdowns feeds arbitrary op streams to the exactness
// harness; the first byte picks the full-size Xeon-MP-HTT, the tiny-PTE
// platform or a two-socket machine.
func FuzzFlushShootdowns(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 17, 2, 3, 1, 4, 0, 0})
	f.Add([]byte{1, 0, 5, 0x11, 1, 9, 0x21, 1, 9, 0x10, 4, 0, 0})
	f.Add([]byte{2, 2, 7, 0x30, 0, 24, 0xf0, 3, 8, 0x22, 1, 40, 0xff, 4, 0, 0x03})
	f.Add([]byte{1, 3, 0, 0x40, 0, 8, 0x40, 0, 16, 0x40, 0, 24, 0x40, 0, 32, 0x40, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		switch data[0] % 3 {
		case 0:
			runExactOps(t, arch.XeonMPHTT(), 1, data[1:])
		case 1:
			runExactOps(t, tinyPTEPlatform(), 1, data[1:])
		case 2:
			runExactOps(t, arch.XeonNUMA(2, 2), 2, data[1:])
		}
	})
}
