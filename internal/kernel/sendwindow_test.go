package kernel

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

func bootSendWindowKernel(t *testing.T, cache CachePolicy) *Kernel {
	t.Helper()
	k, err := Boot(Config{
		Platform:     arch.XeonMP(),
		Mapper:       SFBuf,
		Cache:        cache,
		PhysPages:    512,
		CacheEntries: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// feedAcks folds n identical acknowledgments into the handle.
func feedAcks(w *SendWindow, n, ackedBytes, inflightBytes int) {
	for i := 0; i < n; i++ {
		w.ObserveAck(ackedBytes, inflightBytes)
	}
}

// TestSendWindowAdaptsDown: a slow reader's tiny ACK bursts with a tiny
// backlog must shrink the window below the historical 16 pages.
func TestSendWindowAdaptsDown(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw").SendWindow()
	if got := w.WindowPages(); got != DefaultSendWindowPages {
		t.Fatalf("fresh window %d, want default %d", got, DefaultSendWindowPages)
	}
	// One page acked per burst, one page in flight: target ~1 page,
	// clamped to the 2-page floor.
	feedAcks(w, 4*sendWindowEpoch, vm.PageSize, vm.PageSize)
	if got := w.WindowPages(); got != MinSendWindowPages {
		t.Fatalf("slow-reader window %d, want floor %d", got, MinSendWindowPages)
	}
	st := w.Stats()
	if st.Resizes == 0 || st.Observations != uint64(4*sendWindowEpoch) {
		t.Fatalf("stats did not track the adaptation: %+v", st)
	}
}

// TestSendWindowAdaptsUp: large ACK bursts and a deep in-flight backlog
// must grow the window toward the ceiling.
func TestSendWindowAdaptsUp(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw-up").SendWindow()
	// 40 pages per burst, 100 pages in flight: target 50 → quantized 64.
	feedAcks(w, 4*sendWindowEpoch, 40*vm.PageSize, 100*vm.PageSize)
	if got := w.WindowPages(); got != MaxSendWindowPages {
		t.Fatalf("fast-path window %d, want ceiling %d", got, MaxSendWindowPages)
	}
	// And back down when the connection slows.
	feedAcks(w, 8*sendWindowEpoch, vm.PageSize, 2*vm.PageSize)
	if got := w.WindowPages(); got > 4 {
		t.Fatalf("window stuck high at %d after the connection slowed", got)
	}
}

// TestSendWindowEpochGating: inside an epoch the window must not move,
// however wild the observations.
func TestSendWindowEpochGating(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw-epoch").SendWindow()
	feedAcks(w, sendWindowEpoch-1, 64*vm.PageSize, 128*vm.PageSize)
	if got := w.WindowPages(); got != DefaultSendWindowPages {
		t.Fatalf("window moved to %d inside the first epoch", got)
	}
	w.ObserveAck(64*vm.PageSize, 128*vm.PageSize)
	if got := w.WindowPages(); got == DefaultSendWindowPages {
		t.Fatal("window did not move on the epoch boundary")
	}
}

// TestSendWindowFixedPinned: a fixed handle tracks observations but never
// resizes — the ablation arms must stay at their configured size.
func TestSendWindowFixedPinned(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	for _, pin := range []int{2, 16, 64} {
		w := k.Consumer("test-sw-fixed").FixedSendWindow(pin)
		feedAcks(w, 10*sendWindowEpoch, vm.PageSize, vm.PageSize)
		if got := w.WindowPages(); got != pin {
			t.Fatalf("fixed(%d) drifted to %d", pin, got)
		}
		st := w.Stats()
		if !st.Fixed || st.Resizes != 0 {
			t.Fatalf("fixed(%d) stats wrong: %+v", pin, st)
		}
	}
}

// TestSendWindowInertOnGlobalCache: the figure-reproduction kernels pin
// CacheGlobal, whose consumers do not adapt; their send windows must stay
// at the historical constant no matter what they observe, so the paper
// figures stay byte-identical.
func TestSendWindowInertOnGlobalCache(t *testing.T) {
	k := bootSendWindowKernel(t, CacheGlobal)
	w := k.Consumer("test-sw-global").SendWindow()
	feedAcks(w, 10*sendWindowEpoch, vm.PageSize, vm.PageSize)
	if got := w.WindowPages(); got != DefaultSendWindowPages {
		t.Fatalf("global-cache window moved to %d; figures are no longer byte-identical", got)
	}
	if st := w.Stats(); st.WindowPages != DefaultSendWindowPages || st.Resizes != 0 {
		t.Fatalf("inert handle stats wrong: %+v", st)
	}
}

// TestSendWindowZeroAcksIgnored: pure window updates (no new bytes
// acknowledged) must not perturb the signals.
func TestSendWindowZeroAcksIgnored(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw-zero").SendWindow()
	feedAcks(w, 100, 0, 50*vm.PageSize)
	if st := w.Stats(); st.Observations != 0 {
		t.Fatalf("zero-byte acks were counted: %+v", st)
	}
}

// TestSendWindowStallBackoff: a mapping-pressure stall must halve the
// window immediately and cap epoch growth at the halved size for the
// connection's life — the congestion response that keeps the adaptive
// arm off an exhausted cache.  No run of stall-free epochs re-earns the
// window.
func TestSendWindowStallBackoff(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw-stall").SendWindow()

	// Grow to the ceiling first.
	feedAcks(w, 64, 40*vm.PageSize, 100*vm.PageSize)
	if got := w.WindowPages(); got != MaxSendWindowPages {
		t.Fatalf("pre-stall window %d, want %d", got, MaxSendWindowPages)
	}

	w.ObserveStall()
	if got := w.WindowPages(); got != MaxSendWindowPages/2 {
		t.Fatalf("post-stall window %d, want %d", got, MaxSendWindowPages/2)
	}
	if st := w.Stats(); st.Stalls != 1 || st.CeilPages != MaxSendWindowPages/2 {
		t.Fatalf("stall stats %+v, want 1 stall, ceil %d", st, MaxSendWindowPages/2)
	}

	// Sixteen stall-free epochs of fast ACK traffic — traffic that grew
	// the window to the maximum above — leave the halved ceiling in place.
	const stallFreeEpochs = 16
	feedAcks(w, stallFreeEpochs*sendWindowEpoch, 40*vm.PageSize, 100*vm.PageSize)
	if st := w.Stats(); st.WindowPages != MaxSendWindowPages/2 || st.CeilPages != MaxSendWindowPages/2 {
		t.Fatalf("after %d stall-free epochs window %d ceil %d, want both %d",
			stallFreeEpochs, st.WindowPages, st.CeilPages, MaxSendWindowPages/2)
	}

	// Repeated stalls converge on the floor, and the floor holds too.
	for i := 0; i < 10; i++ {
		w.ObserveStall()
	}
	if got := w.WindowPages(); got != MinSendWindowPages {
		t.Fatalf("post-collapse window %d, want floor %d", got, MinSendWindowPages)
	}
	feedAcks(w, stallFreeEpochs*sendWindowEpoch, 40*vm.PageSize, 100*vm.PageSize)
	if st := w.Stats(); st.WindowPages != MinSendWindowPages || st.CeilPages != MinSendWindowPages {
		t.Fatalf("after %d stall-free epochs window %d ceil %d, want both %d",
			stallFreeEpochs, st.WindowPages, st.CeilPages, MinSendWindowPages)
	}
}

// TestSendWindowFixedCeilStat: a pinned handle must report its pin as the
// ceiling too — the zero CeilPages the serve sweep's fixed arms used to
// report made their stats tables lie.
func TestSendWindowFixedCeilStat(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	for _, pin := range []int{2, 16, 64} {
		st := k.Consumer("test-sw-fixed-ceil").FixedSendWindow(pin).Stats()
		if st.CeilPages != pin {
			t.Fatalf("fixed(%d) reports CeilPages %d, want %d", pin, st.CeilPages, pin)
		}
	}
}

// TestSendWindowStallInertOnFixed: stalls must not move a pinned handle.
func TestSendWindowStallInertOnFixed(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	w := k.Consumer("test-sw-stall-fixed").FixedSendWindow(16)
	for i := 0; i < 5; i++ {
		w.ObserveStall()
	}
	if got := w.WindowPages(); got != 16 {
		t.Fatalf("fixed window moved to %d on stalls", got)
	}
	if st := w.Stats(); st.Resizes != 0 {
		t.Fatalf("fixed handle recorded %d resizes", st.Resizes)
	}
}

// TestSendWindowStartPages: the serving slow-start knob sets an adaptive
// handle's initial window, clamps out-of-range values, and is a no-op on
// pinned and non-adaptive handles.
func TestSendWindowStartPages(t *testing.T) {
	k := bootSendWindowKernel(t, CacheSharded)
	c := k.Consumer("test-sw-start")
	if got := c.SendWindow().StartPages(MinSendWindowPages).WindowPages(); got != MinSendWindowPages {
		t.Fatalf("slow-start window %d, want %d", got, MinSendWindowPages)
	}
	if got := c.SendWindow().StartPages(0).WindowPages(); got != MinSendWindowPages {
		t.Fatalf("clamped-low start %d, want %d", got, MinSendWindowPages)
	}
	if got := c.SendWindow().StartPages(1 << 20).WindowPages(); got != MaxSendWindowPages {
		t.Fatalf("clamped-high start %d, want %d", got, MaxSendWindowPages)
	}
	if got := c.FixedSendWindow(16).StartPages(2).WindowPages(); got != 16 {
		t.Fatalf("StartPages moved a pinned handle to %d", got)
	}
	kg := bootSendWindowKernel(t, CacheGlobal)
	if got := kg.Consumer("test-sw-start-g").SendWindow().StartPages(2).WindowPages(); got != DefaultSendWindowPages {
		t.Fatalf("StartPages moved an inert handle to %d", got)
	}
}
