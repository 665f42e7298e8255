package kernel

// Per-connection adaptive send batching.  The windowed send paths
// (sendfile, zero-copy socket send) map file and user pages in windows —
// one AllocRun or AllocBatch per window — and historically sized every
// window with one fixed constant (sendfile.VectoredRun = 16 pages).  A
// fixed size is wrong at both ends of a serving workload: a slow reader
// advertising a tiny receive window keeps only a page or two in flight,
// so a 16-page window pins 14 mappings that sit idle in a bounded cache
// other connections are starving for; a fast LAN client ACK-clocks a
// whole bandwidth-delay product per round trip, so 16-page windows pay
// four window installs where one would do.
//
// SendWindow is the per-connection policy handle that replaces the
// constant.  Each connection observes its own ACK stream — how many
// pages each acknowledgment burst covered, and how many pages were still
// in flight when it arrived — and sizes the next mapping window to the
// connection's measured appetite: roughly one window per ACK burst,
// bounded by what the connection actually keeps in flight.  The two
// signals are EWMA-smoothed and the window is re-decided only on epoch
// boundaries, quantized to powers of two so the run pool's size-classed
// window stock is not scattered across arbitrary lengths.
//
// The handle only adapts on kernels whose contiguity policy adapts
// (MapConsumer.adaptive): everywhere else WindowPages is the historical
// constant, so the figure-reproduction kernels (global-lock cache,
// original kernel) keep their exact window sizes.  Observation is pure
// bookkeeping — no simulated cycles are charged — because it rides on
// ACK processing that already charges AckProcess; the policy's mapping
// decisions are charged where they always were, in UseRuns.

import (
	"sync"

	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

const (
	// MinSendWindowPages and MaxSendWindowPages clamp the adaptive send
	// window.  The floor keeps the window on the multi-page (batched)
	// path; the ceiling bounds how many mappings one connection can pin
	// in a shared cache.
	MinSendWindowPages = 2
	MaxSendWindowPages = 64
	// DefaultSendWindowPages is the historical fixed window
	// (sendfile.VectoredRun), used until a connection has observed
	// enough ACKs to size itself and forever on non-adaptive kernels.
	DefaultSendWindowPages = 16
	// sendWindowEpoch is the number of ACK observations between window
	// re-decisions; like the contiguity classes, the window cannot
	// thrash inside an epoch.
	sendWindowEpoch = 8
	// sendWindowAlpha smooths the ACK-burst and in-flight signals.
	sendWindowAlpha = 0.25
	// sendWindowRecoveryEpochs is how many consecutive stall-free epochs
	// earn one upward probe of the stall ceiling (AIMD recovery): long
	// enough that a ceiling halved under real pressure is not immediately
	// re-tested, short enough that a long-lived connection outliving a
	// transient spike re-earns its window.
	sendWindowRecoveryEpochs = 4
)

// SendWindow sizes one connection's mapping windows from its observed
// ACK cadence.  Create one per connection with MapConsumer.SendWindow
// (adaptive where the consumer adapts) or FixedSendWindow (pinned, for
// ablation sweeps).  Methods are safe for concurrent use; the serving
// paths call ObserveAck from ACK processing and WindowPages/MapExtent
// from the send loop.
type SendWindow struct {
	c     *MapConsumer
	fixed int // pinned size when > 0

	mu sync.Mutex
	// ackEWMA tracks pages acknowledged per ACK burst; inflightEWMA
	// tracks pages still unacknowledged at each ACK arrival.
	ackEWMA      float64
	inflightEWMA float64
	obs          uint64
	resizes      uint64
	stalls       uint64
	cur          int
	// ceil is the stall-driven congestion cap on epoch growth: it halves
	// on ObserveStall — a stall is evidence this connection's share of
	// the mapping cache is smaller than its appetite — and probes back
	// upward (one doubling) after sendWindowRecoveryEpochs consecutive
	// stall-free epochs, the AIMD shape.  A long-lived connection that
	// outlives a transient pressure spike thus re-earns its window
	// instead of being capped for life.
	ceil int
	// calmEpochs counts consecutive stall-free epochs since the last
	// ceiling change; epochStalls is the stall count at the last epoch
	// boundary, for detecting stalls that arrived between boundaries.
	calmEpochs  int
	epochStalls uint64
}

// SendWindow returns a new per-connection send-window handle under this
// consumer's policy.  On non-adaptive consumers the handle is inert: it
// always reports DefaultSendWindowPages.
func (c *MapConsumer) SendWindow() *SendWindow {
	return &SendWindow{c: c, cur: DefaultSendWindowPages, ceil: MaxSendWindowPages}
}

// StartPages sets an adaptive handle's initial window — the slow-start
// knob for servers multiplexing a mapping cache across thousands of
// connections, where starting every connection at the historical 16
// pages is itself a demand spike several times the cache.  Single-
// connection paths (sendfile on an otherwise idle kernel) keep the
// historical default.  Clamped to [MinSendWindowPages,
// MaxSendWindowPages]; no-op on fixed and non-adaptive handles.
func (w *SendWindow) StartPages(pages int) *SendWindow {
	if w.fixed != 0 || w.c == nil || !w.c.adaptive {
		return w
	}
	if pages < MinSendWindowPages {
		pages = MinSendWindowPages
	}
	if pages > MaxSendWindowPages {
		pages = MaxSendWindowPages
	}
	w.mu.Lock()
	w.cur = pages
	w.mu.Unlock()
	return w
}

// FixedSendWindow returns a handle pinned to the given window size — the
// ablation arm of the serve benchmark's fixed-batch sweep.  Observation
// is accepted and tracked but never changes the window; ceil is pinned
// too, so Stats reports the cap a fixed handle actually lives under.
func (c *MapConsumer) FixedSendWindow(pages int) *SendWindow {
	if pages < 1 {
		pages = 1
	}
	return &SendWindow{c: c, fixed: pages, cur: pages, ceil: pages}
}

// WindowPages returns the pages the next mapping window should cover.
func (w *SendWindow) WindowPages() int {
	if w.fixed > 0 {
		return w.fixed
	}
	if w.c == nil || !w.c.adaptive {
		return DefaultSendWindowPages
	}
	w.mu.Lock()
	n := w.cur
	w.mu.Unlock()
	return n
}

// ObserveAck folds one acknowledgment into the window policy:
// ackedBytes is what the ACK newly covered, inflightBytes what remains
// unacknowledged after it.  Called from ACK processing; charges nothing.
func (w *SendWindow) ObserveAck(ackedBytes, inflightBytes int) {
	if ackedBytes <= 0 {
		return
	}
	ackPages := float64(ackedBytes) / float64(vm.PageSize)
	inflightPages := float64(inflightBytes) / float64(vm.PageSize)
	w.mu.Lock()
	w.ackEWMA += sendWindowAlpha * (ackPages - w.ackEWMA)
	w.inflightEWMA += sendWindowAlpha * (inflightPages - w.inflightEWMA)
	w.obs++
	if w.fixed == 0 && w.c != nil && w.c.adaptive && w.obs%sendWindowEpoch == 0 {
		// AIMD recovery: after sendWindowRecoveryEpochs consecutive
		// stall-free epochs, probe the stall ceiling one doubling upward
		// before this epoch's decision, so sustained calm re-earns the
		// window a transient pressure spike took away.
		if w.stalls == w.epochStalls {
			w.calmEpochs++
			if w.calmEpochs >= sendWindowRecoveryEpochs && w.ceil < MaxSendWindowPages {
				w.ceil *= 2
				if w.ceil > MaxSendWindowPages {
					w.ceil = MaxSendWindowPages
				}
				w.calmEpochs = 0
			}
		} else {
			w.calmEpochs = 0
		}
		w.epochStalls = w.stalls
		// Target one window per ACK burst, with headroom up to what the
		// connection keeps in flight: a slow reader's burst and backlog
		// are both tiny, a BDP-limited fast path has bursts near the
		// whole window.
		target := w.ackEWMA
		if half := w.inflightEWMA / 2; half > target {
			target = half
		}
		next := quantizeWindow(target)
		if next > w.ceil {
			next = w.ceil
		}
		if next != w.cur {
			w.cur = next
			w.resizes++
		}
	}
	w.mu.Unlock()
}

// ObserveStall folds one mapping-pressure stall (the send path's
// AllocRun/AllocBatch returning ErrWouldBlock) into the policy:
// immediate multiplicative decrease, the congestion response that makes
// the adaptive arm robust where a fixed window keeps banging on an
// exhausted cache.  Unlike ACK observation this is not epoch-gated — a
// stall is evidence the current window cannot be granted at all, and
// every backoff tick spent retrying it is pure added latency.  The
// halved size also becomes the handle's growth ceiling, and the smoothed
// signals are damped, so epoch decisions cannot immediately re-grow into
// the same pressure; the ceiling recovers only through the AIMD probe
// after sustained stall-free epochs.  Inert on fixed and non-adaptive
// handles.
func (w *SendWindow) ObserveStall() {
	if w.fixed != 0 || w.c == nil || !w.c.adaptive {
		return
	}
	w.mu.Lock()
	w.stalls++
	// Restart the recovery clock: the calm count drops now, and
	// epochStalls syncs so the next boundary counts the post-stall ACKs
	// as the first stall-free epoch rather than re-detecting this stall.
	w.calmEpochs = 0
	w.epochStalls = w.stalls
	next := w.cur / 2
	if next < MinSendWindowPages {
		next = MinSendWindowPages
	}
	if next < w.ceil {
		w.ceil = next
	}
	if next != w.cur {
		w.cur = next
		w.resizes++
	}
	w.ackEWMA /= 2
	w.inflightEWMA /= 2
	w.mu.Unlock()
}

// quantizeWindow rounds a fractional page target up to the next power of
// two inside [MinSendWindowPages, MaxSendWindowPages].
func quantizeWindow(target float64) int {
	n := MinSendWindowPages
	for float64(n) < target && n < MaxSendWindowPages {
		n <<= 1
	}
	return n
}

// SendWindowStats snapshots one handle's state (tests and reports).
type SendWindowStats struct {
	// WindowPages is the current decision; CeilPages the stall-driven
	// growth cap; Fixed reports a pinned handle.
	WindowPages int
	CeilPages   int
	Fixed       bool
	// AckBurstPages and InflightPages are the smoothed signals.
	AckBurstPages float64
	InflightPages float64
	// Observations counts ACKs folded in; Resizes counts window changes;
	// Stalls counts mapping-pressure backoffs folded in.
	Observations uint64
	Resizes      uint64
	Stalls       uint64
}

// Stats returns the handle's current state.
func (w *SendWindow) Stats() SendWindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	cur := w.cur
	if w.fixed == 0 && (w.c == nil || !w.c.adaptive) {
		cur = DefaultSendWindowPages
	}
	return SendWindowStats{
		WindowPages:   cur,
		CeilPages:     w.ceil,
		Fixed:         w.fixed > 0,
		AckBurstPages: w.ackEWMA,
		InflightPages: w.inflightEWMA,
		Observations:  w.obs,
		Resizes:       w.resizes,
		Stalls:        w.stalls,
	}
}

// MapExtent maps one send-side window by the consumer's contiguity
// policy with the given allocation flags — the flags-aware form of
// MapSendExtent.  The serving loop passes sfbuf.NoWait: a synchronous
// sleep inside the single-threaded virtual-network event loop would
// deadlock it, so mapping pressure surfaces as ErrWouldBlock and the
// caller backs off on a retry timer, which is exactly the latency the
// serve benchmark's percentiles must see.
func (w *SendWindow) MapExtent(ctx *smp.Context, pages []*vm.Page, flags sfbuf.Flags) (Extent, error) {
	return w.c.mapSendExtent(ctx, pages, flags)
}
