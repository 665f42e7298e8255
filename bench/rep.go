package main

import (
	"fmt"
	"runtime"
	"time"

	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// env is what one rep of a workload is given.  The workload receives only
// the inputs generated from seed, never the workload's name.
type env struct {
	seed  uint64
	quick bool // ~1/20 size (-quick)
	// div divides the op count: 1 on the measured reps, 8 on the traced
	// rep and its untraced twin.
	div int
	// sample makes the rep record each op's simulated cycles.  The run is
	// deterministic, so one untimed rep samples and the host-timed reps
	// carry no per-op instrumentation.
	sample bool
	tr     *tracer
	// cache overrides the mapping-cache engine of the single-page loop:
	// the traced pass re-runs hot and churn on the global-lock cache for
	// sfbuf.global_ref_ns.
	cache kernel.CachePolicy
}

// scale sizes a count for this rep.
func (e *env) scale(n int) int {
	if e.quick {
		n /= 20
	}
	n /= e.div
	if n < 1 {
		n = 1
	}
	return n
}

// simTotals is everything simulated a rep produces.  Two reps of one
// workload with one seed must agree on all of it.
type simTotals struct {
	pages, ops int64
	cycles     int64 // all vCPUs, measured phase, over simPages
	simPages   int64 // pages the cycles and counters cover (figures: sf_buf arms)
	allCycles  int64 // all vCPUs, every measured phase
	ctr        smp.Snapshot
	hash       uint64  // serve: the packet schedule's TraceHash
	speedup    float64 // figures
	paperErr   float64 // figures
}

// rep is one boot-to-quiesce execution of a workload.  Its host time is
// split three ways: measured phases (runNs), set-up (setupNs: boot,
// building pages, corpora and disks, warm-up) and the harness's own
// bookkeeping (MemStats reads, forced collections), which counts as
// neither.
type rep struct {
	simTotals
	setupNs, runNs int64
	mark           time.Time // where the current set-up stretch began
	mallocs        uint64
	liveMB         float64
	failed         int64
	errs           []string
	opCyc          []int64 // per-op simulated cycles when env.sample
	// counts are public-accessor deltas over the measured phase, for the
	// per-layer ratios; note carries report lines that are not metrics.
	counts map[string]float64
	note   []string
}

// fail records one failed output check, failN a check that n ops failed.
func (r *rep) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *rep) failN(n int64, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// newRep starts a rep's first set-up stretch.
func newRep() *rep { return &rep{mark: time.Now()} }

// phase brackets one measured stretch on one kernel.
type phase struct {
	r  *rep
	k  *kernel.Kernel
	t0 time.Time
	c0 int64
	s0 smp.Snapshot
	m0 uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// beginPhase closes the set-up stretch and starts a measured one.
func (r *rep) beginPhase(k *kernel.Kernel) phase {
	r.setupNs += int64(time.Since(r.mark))
	p := phase{r: r, k: k, c0: int64(k.M.TotalCycles()), s0: k.M.SnapshotCounters(), m0: mallocs()}
	p.t0 = time.Now()
	return p
}

// end folds the phase into the rep.  sim says whether the phase's cycles
// and counters count toward the simulated totals (false for the original-
// kernel arms of figures, which are the baseline, not the system).
func (p phase) end(pages int64, sim bool) {
	r := p.r
	r.runNs += int64(time.Since(p.t0))
	r.mallocs += mallocs() - p.m0
	r.pages += pages
	cyc := int64(p.k.M.TotalCycles()) - p.c0
	r.allCycles += cyc
	if sim {
		r.simPages += pages
		r.cycles += cyc
		d := p.k.M.SnapshotCounters().Sub(p.s0)
		r.ctr.LocalInv += d.LocalInv
		r.ctr.RemoteInvIssued += d.RemoteInvIssued
		r.ctr.IPIsDelivered += d.IPIsDelivered
		r.ctr.BatchedFlushes += d.BatchedFlushes
		r.ctr.BatchedInv += d.BatchedInv
		r.ctr.LockAcq += d.LockAcq
		r.ctr.PTWalks += d.PTWalks
		r.ctr.HandlerCycles += d.HandlerCycles
		r.ctr.DaemonCycles += d.DaemonCycles
	}
	r.mark = time.Now()
}

// live samples the live heap at the end of a measured phase, with the
// phase's kernel still reachable, and keeps the largest sample.  It is the
// collection that frees what the phase allocated.
func (r *rep) live(k *kernel.Kernel) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if mb := float64(ms.HeapAlloc) / (1 << 20); mb > r.liveMB {
		r.liveMB = mb
	}
	runtime.KeepAlive(k)
	r.mark = time.Now()
}

// boot and allocN are the two set-up calls every workload makes; they
// carry the kernel.boot and vm.allocn spans.
func boot(tr *tracer, bootFn func() (*kernel.Kernel, error)) (*kernel.Kernel, error) {
	tr.setMachine(nil) // no clock until the machine exists
	s := tr.begin(spKernelBoot, 0, 1)
	k, err := bootFn()
	if err != nil {
		return nil, err
	}
	tr.setMachine(k.M)
	tr.end(s)
	return k, nil
}

func bootConfig(tr *tracer, cfg kernel.Config) (*kernel.Kernel, error) {
	return boot(tr, func() (*kernel.Kernel, error) { return kernel.Boot(cfg) })
}

func allocN(tr *tracer, k *kernel.Kernel, n int) ([]*vm.Page, error) {
	s := tr.begin(spVMAllocN, 0, n)
	pages, err := k.M.Phys.AllocN(n)
	tr.end(s)
	return pages, err
}

// contexts returns one kernel-thread context per virtual CPU.  The one
// driver goroutine round-robins them; shootdowns are delivered
// synchronously, so a CPU's context need not be running to take one.
func contexts(k *kernel.Kernel) []*smp.Context {
	ctxs := make([]*smp.Context, k.M.NumCPUs())
	for i := range ctxs {
		ctxs[i] = k.Ctx(i)
	}
	return ctxs
}

// drained checks the mapper's ledger at the end of a rep.
func (r *rep) drained(k *kernel.Kernel) {
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		r.fail("leaked mappings: allocs %d != frees %d", st.Allocs, st.Frees)
	}
}
