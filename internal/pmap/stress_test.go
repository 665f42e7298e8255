package pmap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// TestConcurrentTranslateStress runs translators on every CPU against a
// window of mappings while a mutator remaps and globally invalidates them
// with the full coherent protocol.  Every translation must land on a page
// that was mapped at that address at some point of the current or previous
// epoch — never on an unrelated frame — and nothing may fault.
func TestConcurrentTranslateStress(t *testing.T) {
	m := smp.NewMachine(arch.XeonMPHTT(), 256, true)
	pm := New(m)
	const window = 8
	base := uint64(KVABaseI386)

	epochPages := make([][]*vm.Page, 2)
	for e := range epochPages {
		epochPages[e] = make([]*vm.Page, window)
		for i := range epochPages[e] {
			pg, err := m.Phys.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pg.Data()[0] = byte(0x10*e + i)
			epochPages[e][i] = pg
		}
	}
	mctx := m.Ctx(0)
	install := func(epoch int) {
		for i := 0; i < window; i++ {
			va := base + uint64(i)*vm.PageSize
			pm.KEnter(mctx, va, epochPages[epoch][i])
			mctx.InvalidateGlobal(VPN(va))
		}
	}
	install(0)

	valid := func(b byte) bool {
		// Either epoch's byte for some window slot.
		return (b&0xF0) <= 0x10 && (b&0x0F) < window
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for cpu := 1; cpu < m.NumCPUs(); cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := m.Ctx(cpu)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				va := base + uint64(i%window)*vm.PageSize
				pg, err := pm.Translate(ctx, va, false)
				if err != nil {
					t.Errorf("cpu %d: %v", cpu, err)
					return
				}
				if !valid(pg.Data()[0]) {
					t.Errorf("cpu %d read unrelated frame %#x", cpu, pg.Data()[0])
					return
				}
				i++
			}
		}(cpu)
	}
	for flip := 0; flip < 50; flip++ {
		install(flip % 2)
	}
	close(stop)
	wg.Wait()
}

// TestGlobalInvalidationPublishes: after KEnter + InvalidateGlobal, every
// CPU immediately observes the new frame — the coherence guarantee the
// original kernel relies on.
func TestGlobalInvalidationPublishes(t *testing.T) {
	m := smp.NewMachine(arch.XeonMPHTT(), 64, true)
	pm := New(m)
	va := uint64(KVABaseI386)
	pages := make([]*vm.Page, 8)
	for i := range pages {
		pg, _ := m.Phys.Alloc()
		pg.Data()[0] = byte(i)
		pages[i] = pg
	}
	ctx0 := m.Ctx(0)
	for round, pg := range pages {
		pm.KEnter(ctx0, va, pg)
		ctx0.InvalidateGlobal(VPN(va))
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			got, err := pm.Translate(m.Ctx(cpu), va, false)
			if err != nil {
				t.Fatal(err)
			}
			if got.Data()[0] != byte(round) {
				t.Fatalf("round %d cpu %d: read %d", round, cpu, got.Data()[0])
			}
		}
	}
}

// TestTranslateVersusTeardownStress: every vCPU translates a window of
// live mappings — single pages and ranged — while a mutator on CPU 0 maps,
// touches, tears down and shoots down OTHER addresses whose PTEs share the
// live window's page-table page.  A translation holds its CPU's lock
// across the walk (cpu.mu -> pmap.mu) and a shootdown takes each target's
// lock, so this is the interleaving that would deadlock or race if the
// order were ever inverted; the live translations must never fault or
// land on another frame.
func TestTranslateVersusTeardownStress(t *testing.T) {
	m := smp.NewMachine(arch.XeonMPHTT(), 256, false)
	pm := New(m)
	const live, churn = 32, 16
	base := uint64(KVABaseI386)
	churnBase := base + live*vm.PageSize
	pages, err := m.Phys.AllocN(live + churn)
	if err != nil {
		t.Fatal(err)
	}
	pm.KEnterRun(m.Ctx(0), base, pages[:live])

	var wg sync.WaitGroup
	var translated atomic.Int64
	stop := make(chan struct{})
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := m.Ctx(cpu)
			var out []*vm.Page
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				translated.Add(1)
				if i%64 == 0 {
					ctx.FlushLocalTLB() // keep walking, not just hitting
				}
				runtime.Gosched() // let the mutator at this CPU's lock
				j := (i * 7) % live
				pg, err := pm.Translate(ctx, base+uint64(j)*vm.PageSize, i%3 == 0)
				if err != nil || pg != pages[j] {
					t.Errorf("cpu %d: live page %d translated to %v, %v", cpu, j, pg, err)
					return
				}
				n := 1 + i%(live-j)
				if out, err = pm.TranslateRun(ctx, base+uint64(j)*vm.PageSize, n, false, out[:0]); err != nil {
					t.Errorf("cpu %d: live run %d+%d: %v", cpu, j, n, err)
					return
				}
				for k, pg := range out {
					if pg != pages[j+k] {
						t.Errorf("cpu %d: live run %d+%d page %d translated to %v", cpu, j, n, k, pg)
						return
					}
				}
			}
		}(cpu)
	}
	mctx := m.Ctx(0)
	vpns := make([]uint64, churn)
	var accessed []bool
	// At least 40 teardown rounds, and until the translators have had a
	// real share of the machine.
	for round := 0; round < 40 || translated.Load() < 8000; round++ {
		for i := range vpns {
			va := churnBase + uint64(i)*vm.PageSize
			vpns[i] = VPN(va)
			pm.KEnter(mctx, va, pages[live+(i+round)%churn])
			if _, err := pm.Translate(m.Ctx(1+round%3), va, true); err != nil {
				t.Fatal(err)
			}
		}
		accessed = pm.KRemoveBatch(mctx, vpns, accessed[:0])
		mctx.InvalidateLocalRange(vpns)
		mctx.ShootdownRange(m.AllCPUs(), vpns)
	}
	close(stop)
	wg.Wait()
	for i, vpn := range vpns {
		if !accessed[i] {
			t.Fatalf("churn page %d was translated but its accessed bit was lost", i)
		}
		for cpu := 0; cpu < m.NumCPUs(); cpu++ {
			if m.CPU(cpu).TLBResident(vpn) {
				t.Fatalf("cpu %d still caches torn-down vpn %#x", cpu, vpn)
			}
		}
	}
}
