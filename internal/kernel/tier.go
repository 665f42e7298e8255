package kernel

// Consumer-hinted hot-extent placement on a tiered physical pool.
//
// The tier split itself (vm.SetTierSplit) and the slow-tier surcharge
// (smp.Context.ChargeBytesAt) are mechanism: every copy, zeroing pass and
// checksum against a slow frame costs more.  What makes a two-tier pool
// pay is placement — keeping the frames the workload actually re-touches
// in the fast tier — and the signal for that already exists: each
// MapConsumer's per-size-class reuse EWMAs, maintained for the adaptive
// contiguity policy.  An extent observed repeating while its class's
// extent-reuse EWMA clears tierHotEWMA is hot; the keeper promotes its
// frames into the fast tier (vm migration under every shard lock, parked
// windows remapped in place, one shootdown flush per pass).  Everything
// else is cold and stays where allocation put it.
//
// Fast-tier pressure is resolved by demoting the coldest tracked resident
// extents (least-recently-noted first): synchronously when a promotion
// needs room, and ahead of demand as the background daemon's fifth
// idle-tick duty, which keeps a small free reserve in the fast tier so
// promotions land without paying a synchronous eviction.
//
// On a uniform pool the keeper does not exist (Kernel.tier is nil) and no
// consumer pays a cycle of its bookkeeping: the default configuration is
// byte-identical to the untiered build.

import (
	"sort"
	"sync"
	"sync/atomic"

	"sfbuf/internal/sfbuf"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

const (
	// tierHotEWMA is the class extent-reuse EWMA a consumer must clear
	// before a repeating extent counts as hot.  It is the anti-thrash
	// gate: a uniform access pattern wide enough to defeat the EWMAs
	// (every extent "repeats" occasionally, none reliably) stays below
	// it, so the keeper promotes nothing and the pool behaves
	// tier-obliviously instead of churning copies.
	tierHotEWMA = 0.5
	// tierMaxTracked bounds the keeper's extent table; beyond it the
	// least-recently-noted entries are dropped (their frames stay where
	// they are — tracking is for eviction ordering, not correctness).
	tierMaxTracked = 512
	// tierNoteHistory is the per-extent note-time ring depth: the keeper
	// estimates an extent's access frequency as
	// tierNoteHistory / (now - oldest recorded note), a direct sliding-
	// window rate.  An extent with fewer recorded notes has no rate yet
	// and cannot be promoted — a single lucky repeat of an unpopular
	// extent tracks it but moves nothing.
	tierNoteHistory = 4
	// tierAdmitMargin is the admission hysteresis: a candidate may evict
	// a resident only when its estimated rate beats the weakest
	// resident's by this factor.  Rates estimated from tierNoteHistory
	// samples are noisy; without the margin, near-equal boundary extents
	// endlessly swap places, and every swap costs two page copies per
	// page plus a shootdown round.  With it, a stable working set
	// migrates nothing at all.
	tierAdmitMargin = 1.5
	// tierStaleAge drives idle demotion: a fast-resident tracked extent
	// not noted for this many notes is demoted on the daemon's tick.
	// Aging — rather than keeping a fixed free reserve — is what keeps
	// the steady state quiet: a full fast tier of hot extents stays
	// exactly where it is until something actually goes cold.
	tierStaleAge = 256
)

// tierExtent is one tracked extent: the page handles (stable across
// migration) and a ring of its last tierNoteHistory note times, the
// sliding window its access rate is estimated from.
type tierExtent struct {
	pages []*vm.Page
	notes [tierNoteHistory]uint64
	count uint64
}

// note records an observation at the given clock.
func (e *tierExtent) note(clock uint64) {
	e.notes[e.count%tierNoteHistory] = clock
	e.count++
}

// last is the clock of the most recent note.
func (e *tierExtent) last() uint64 {
	if e.count == 0 {
		return 0
	}
	return e.notes[(e.count-1)%tierNoteHistory]
}

// rate estimates the extent's notes-per-clock-tick access frequency over
// its recorded window, or 0 when the ring has not filled yet — an extent
// without tierNoteHistory observations has no defensible claim on a fast
// frame.
func (e *tierExtent) rate(clock uint64) float64 {
	if e.count < tierNoteHistory {
		return 0
	}
	oldest := e.notes[e.count%tierNoteHistory]
	return tierNoteHistory / float64(clock-oldest+1)
}

// TierKeeper tracks hot extents on a tiered pool and moves their frames
// with the migration machinery.  One per kernel, created by Boot when
// tier hints resolve on.
type TierKeeper struct {
	k   *Kernel
	mig *sfbuf.Migrator

	mu      sync.Mutex
	extents map[uint64]*tierExtent
	clock   uint64

	promoted     atomic.Uint64 // pages moved into the fast tier
	demoted      atomic.Uint64 // pages moved out of it
	promotedExt  atomic.Uint64 // extents at least partially promoted
	demotedExt   atomic.Uint64 // extents at least partially demoted
	promoteFails atomic.Uint64 // hot extents left in place (no room, nothing evictable)
}

// newTierKeeper builds the keeper over the kernel's migration machinery.
func newTierKeeper(k *Kernel, mig *sfbuf.Migrator) *TierKeeper {
	return &TierKeeper{k: k, mig: mig, extents: make(map[uint64]*tierExtent)}
}

// Note records one consumer observation of the extent keyed by sig: the
// clock advances, a first hot observation starts tracking the extent,
// and a hot observation of an extent whose estimated access rate has
// filled its window promotes it — its slow-tier frames migrated into the
// fast tier, but only if the fast tier has room or the weakest resident
// is demonstrably colder (the admission margin) than the candidate.  A
// candidate that cannot beat any resident moves nothing: refusing that
// promotion, not performing it, is what the placement economy rewards.
// Called by MapConsumer.UseRuns outside the consumer's own lock.
func (t *TierKeeper) Note(ctx *smp.Context, sig uint64, pages []*vm.Page, hot bool) {
	ctx.ChargeLock() // the keeper's own table round trip is simulated cost
	t.mu.Lock()
	t.clock++
	ext := t.extents[sig]
	if ext == nil {
		// Every observed extent is tracked, not just hot ones: a cold
		// extent's entry is what gives the admission check an honest
		// (low) rate to demote it by when it squats on fast frames it
		// inherited from allocation order.
		ext = &tierExtent{pages: append([]*vm.Page(nil), pages...)}
		t.extents[sig] = ext
	}
	ext.note(t.clock)
	// After the note, so a new extent ranks as the most recent rather
	// than as never noted.
	t.pruneLocked()
	rate := ext.rate(t.clock)
	t.mu.Unlock()
	if !hot || rate == 0 {
		return
	}
	phys := t.k.M.Phys
	need := 0
	for _, pg := range pages {
		if phys.SlowFrame(pg.Frame()) {
			need++
		}
	}
	if need == 0 {
		return
	}
	if free := phys.TierFreeFrames(vm.TierFast); free < need {
		if !t.demoteWeaker(ctx, sig, rate, need-free) {
			t.promoteFails.Add(1)
			return
		}
	}
	if moved := t.mig.MoveToTier(ctx, pages, vm.TierFast, ctx.Socket()); moved > 0 {
		t.promoted.Add(uint64(moved))
		t.promotedExt.Add(1)
	} else {
		t.promoteFails.Add(1)
	}
}

// demoteWeaker makes room for a candidate with the given estimated rate:
// it migrates the lowest-rate fast-resident tracked extents out of the
// fast tier, but only while the candidate's rate beats the victim's by
// the admission margin.  Returns whether the needed frames were freed.
// Victims that yield no movable page are dropped from the table so the
// pass cannot spin on them.
func (t *TierKeeper) demoteWeaker(ctx *smp.Context, except uint64, candRate float64, need int) bool {
	phys := t.k.M.Phys
	for need > 0 {
		t.mu.Lock()
		var victim *tierExtent
		var vsig uint64
		vrate := 0.0
		for sig, e := range t.extents {
			if sig == except {
				continue
			}
			inFast := false
			for _, pg := range e.pages {
				if f := pg.Frame(); f != 0 && !phys.SlowFrame(f) {
					inFast = true
					break
				}
			}
			if !inFast {
				continue
			}
			// Strictly ordered victim choice (rate, then signature) so
			// the pass is deterministic regardless of map iteration order.
			r := e.rate(t.clock)
			if victim == nil || r < vrate || (r == vrate && sig < vsig) {
				victim, vsig, vrate = e, sig, r
			}
		}
		t.mu.Unlock()
		if victim == nil || candRate <= tierAdmitMargin*vrate {
			return false
		}
		moved := t.mig.MoveToTier(ctx, victim.pages, vm.TierSlow, ctx.Socket())
		if moved == 0 {
			t.mu.Lock()
			delete(t.extents, vsig)
			t.mu.Unlock()
			continue
		}
		t.demoted.Add(uint64(moved))
		t.demotedExt.Add(1)
		need -= moved
	}
	return true
}

// IdleDemote is the background daemon's tier duty: demote fast-resident
// tracked extents that have gone stale (not noted for tierStaleAge
// notes) — eviction paid out of idle time.  A full fast tier of live
// extents is left alone: steady-state pressure is resolved by the
// synchronous demotion on the promotion path, not by keeping frames
// idle-free, so a stable working set migrates nothing at all.
func (t *TierKeeper) IdleDemote(ctx *smp.Context) {
	phys := t.k.M.Phys
	type stale struct {
		sig  uint64
		last uint64
	}
	t.mu.Lock()
	clock := t.clock
	var victims []stale
	for sig, e := range t.extents {
		if clock-e.last() <= tierStaleAge {
			continue
		}
		inFast := false
		for _, pg := range e.pages {
			if f := pg.Frame(); f != 0 && !phys.SlowFrame(f) {
				inFast = true
				break
			}
		}
		if inFast {
			victims = append(victims, stale{sig, e.last()})
		}
	}
	t.mu.Unlock()
	// Oldest first, signature tiebreak: deterministic regardless of map
	// iteration order.
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].last != victims[j].last {
			return victims[i].last < victims[j].last
		}
		return victims[i].sig < victims[j].sig
	})
	for _, v := range victims {
		t.mu.Lock()
		ext := t.extents[v.sig]
		t.mu.Unlock()
		if ext == nil || ext.last() != v.last {
			continue // re-noted since the scan: no longer stale
		}
		if moved := t.mig.MoveToTier(ctx, ext.pages, vm.TierSlow, ctx.Socket()); moved > 0 {
			t.demoted.Add(uint64(moved))
			t.demotedExt.Add(1)
		}
	}
}

// pruneLocked bounds the extent table by dropping the least recently
// noted entries.  Caller holds t.mu.
func (t *TierKeeper) pruneLocked() {
	if len(t.extents) <= tierMaxTracked {
		return
	}
	type ent struct {
		sig  uint64
		last uint64
	}
	ents := make([]ent, 0, len(t.extents))
	for sig, e := range t.extents {
		ents = append(ents, ent{sig, e.last()})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].last != ents[j].last {
			return ents[i].last < ents[j].last
		}
		return ents[i].sig < ents[j].sig
	})
	for _, e := range ents[:len(ents)-tierMaxTracked/2] {
		delete(t.extents, e.sig)
	}
}

// TierConsumerStats is one consumer's fast-tier placement economy: of
// the pages it asked the policy layer about, how many were fast-tier
// resident at observation time.
type TierConsumerStats struct {
	// Name identifies the consumer.
	Name string
	// Pages counts pages observed; FastPages those resident in the fast
	// tier when observed.
	Pages     uint64
	FastPages uint64
}

// FastFrac is the consumer's fast-tier hit rate (0 when it observed
// nothing).
func (s TierConsumerStats) FastFrac() float64 {
	if s.Pages == 0 {
		return 0
	}
	return float64(s.FastPages) / float64(s.Pages)
}

// TierStats is the kernel's tiered-memory snapshot: residency, free
// stock, keeper activity, the accumulated slow-tier surcharge, and the
// per-consumer fast-tier hit rates.
type TierStats struct {
	// Tiered reports whether the pool carries a fast/slow split; every
	// other field is zero when it does not.
	Tiered bool
	// FastFrames/SlowFrames are the tiers' frame capacities; FastFree/
	// SlowFree their current free stock.
	FastFrames, SlowFrames int
	FastFree, SlowFree     int
	// PromotedPages/DemotedPages count pages migrated into and out of
	// the fast tier; PromotedExtents/DemotedExtents the passes that
	// moved at least one page; PromoteFails hot extents left in place.
	PromotedPages, DemotedPages     uint64
	PromotedExtents, DemotedExtents uint64
	PromoteFails                    uint64
	// SlowMemCycles is the machine's accumulated slow-tier surcharge
	// (smp.Counters.SlowMemCycles).
	SlowMemCycles int64
	// Consumers lists the per-consumer fast-tier hit rates, sorted by
	// name, omitting consumers that observed nothing.
	Consumers []TierConsumerStats
}

// TierStats snapshots the kernel's tiered-memory state.  On a uniform
// pool only Tiered=false is reported.
func (k *Kernel) TierStats() TierStats {
	phys := k.M.Phys
	if !phys.Tiered() {
		return TierStats{}
	}
	ts := TierStats{
		Tiered:        true,
		FastFrames:    phys.TierFrames(vm.TierFast),
		SlowFrames:    phys.TierFrames(vm.TierSlow),
		FastFree:      phys.TierFreeFrames(vm.TierFast),
		SlowFree:      phys.TierFreeFrames(vm.TierSlow),
		SlowMemCycles: k.M.SnapshotCounters().SlowMemCycles,
	}
	if t := k.tier; t != nil {
		ts.PromotedPages = t.promoted.Load()
		ts.DemotedPages = t.demoted.Load()
		ts.PromotedExtents = t.promotedExt.Load()
		ts.DemotedExtents = t.demotedExt.Load()
		ts.PromoteFails = t.promoteFails.Load()
	}
	k.consumersMu.Lock()
	cs := make([]*MapConsumer, 0, len(k.consumers))
	for _, c := range k.consumers {
		cs = append(cs, c)
	}
	k.consumersMu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	for _, c := range cs {
		pages, fast := c.tierCounts()
		if pages == 0 {
			continue
		}
		ts.Consumers = append(ts.Consumers, TierConsumerStats{Name: c.name, Pages: pages, FastPages: fast})
	}
	return ts
}

// TierHintsEnabled reports whether the kernel booted a tier keeper.
func (k *Kernel) TierHintsEnabled() bool { return k.tier != nil }
