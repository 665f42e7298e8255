package kernel

// Per-consumer adaptive contiguity policy.  Contiguous runs and cached
// scattered mappings have opposite sweet spots: a run pays one window
// install and one ranged translation for a whole extent (streaming
// copies love it), while the mapping cache turns repeat mappings of the
// same pages into pure hits with zero PTE writes and zero invalidations
// (reuse-heavy working sets love it).  Contig On or Off pins every
// consumer to one side of that tradeoff; the adaptive policy
// lets each consumer — pipe, memory disk, sendfile, zero-copy send —
// pick its side from its own observed reuse, the application-driven
// page-management-policy argument UMap makes for userspace services.
//
// Each consumer handle tracks, per window-size class, an EWMA of two
// reuse signals over the extents it maps:
//
//   - page reuse: the fraction of an extent's frames mapped recently by
//     this consumer.  High page reuse is what the hash cache (and the
//     batch path) monetizes.
//   - extent reuse: whether this exact frame sequence was mapped
//     recently.  High extent reuse is what the run path monetizes too,
//     via the page-set window cache (a repeated extent revives its
//     parked window like a hash hit).
//
// The batch path wins only when pages repeat but extents do not — the
// working set is hash-resident while every run install would be cold —
// so the flip score is pageEWMA * (1 - extentEWMA).  Decisions change
// only at window-size-class epoch boundaries and the score must cross
// hysteresis thresholds, so the policy cannot thrash on a mixed phase.
// Consumers start in run mode, preserving the historical static-Auto
// behaviour for short or streaming workloads.

import (
	"sort"
	"sync"

	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

const (
	// adaptiveEpoch is the number of observations (per window-size class)
	// between policy decisions; flips only happen on epoch boundaries.
	adaptiveEpoch = 16
	// adaptiveAlpha is the EWMA smoothing factor for the reuse signals.
	adaptiveAlpha = 0.125
	// adaptiveFlipToBatch and adaptiveFlipToRun are the hysteresis
	// thresholds on the batch score pageEWMA*(1-extentEWMA): run mode
	// flips to batch above the first, batch mode returns to run below
	// the second.
	adaptiveFlipToBatch = 0.5
	adaptiveFlipToRun   = 0.25
	// pageRecentWindow caps how many page observations back a frame
	// still counts as recently mapped; extentRecentWindow likewise for
	// whole extents.  Both windows deliberately match what the caches
	// they predict can actually serve: the page window is further
	// bounded by the mapping cache's capacity (a frame last mapped more
	// than a cache-ful of observations ago has likely been evicted, so
	// its "reuse" would miss anyway — see Plan.MapCapacity), and
	// the extent window matches the run pool's revivable depth (twice
	// runLaunderBatch: an extent repeating less often than that is
	// laundered before it could revive).  Overpredicting either cache
	// strands the consumer on the path whose hits never materialize.
	pageRecentWindow   = 4096
	extentRecentWindow = 16
)

// contigClassCount buckets window sizes by power of two: 2, 4, 8, 16,
// 32, and 64+ pages (single pages never reach the policy).
const contigClassCount = 6

// contigClass is one window-size class's adaptive state.
type contigClass struct {
	run      bool // current decision: run path vs batch path
	pageEWMA float64
	extEWMA  float64
	obs      uint64
	flips    uint64
}

// MapConsumer is one subsystem's contiguity-policy handle.  Under the
// static policies it just echoes the kernel's resolution; under the
// adaptive policy (Plan.Adaptive: Contig Auto on engines with native
// runs) it tracks the consumer's observed reuse and flips the consumer
// between the run path and the batch path per window-size epoch.
type MapConsumer struct {
	k        *Kernel
	name     string
	adaptive bool
	// pageWindow is pageRecentWindow bounded by the engine's capacity.
	pageWindow uint64

	mu      sync.Mutex
	classes [contigClassCount]contigClass
	// Recency trackers, shared across size classes.  pageSeen is indexed
	// by frame and holds the page clock of the frame's last observation
	// plus one (0: never observed).  extSeen holds the signatures of the
	// last extentRecentWindow extents, observation i in slot
	// i%extentRecentWindow: the only ones the recency test can match.
	pageSeen  []uint64
	extSeen   [extentRecentWindow]uint64
	pageClock uint64
	extClock  uint64

	observations uint64
	runDecisions uint64
	batchDecs    uint64

	// Tier placement economy (tiered pools only): pages observed by this
	// consumer, and how many of them were fast-tier resident at
	// observation time.
	tierPages uint64
	tierFast  uint64

	// sendMu guards sendFree, the recycled release records of this
	// consumer's send extents.  Host-only: recycling a record is
	// simulator bookkeeping, and nothing charges it.
	sendMu   sync.Mutex
	sendFree []*sendRecord
}

// PolicyClassStats is one window-size class's adaptive state snapshot.
type PolicyClassStats struct {
	// MaxPages is the class's upper window size (2, 4, ..., 64 meaning
	// 64 and larger).
	MaxPages int
	// Mode is the class's current decision: "run" or "batch".
	Mode string
	// PageReuseEWMA and ExtentReuseEWMA are the smoothed reuse signals.
	PageReuseEWMA   float64
	ExtentReuseEWMA float64
	// Observations counts extents observed in this class; Flips counts
	// mode changes.
	Observations uint64
	Flips        uint64
}

// PolicyStats is a consumer handle's policy state snapshot.
type PolicyStats struct {
	// Name identifies the consumer ("pipe", "memdisk", "sendfile",
	// "netstack").
	Name string
	// Adaptive reports whether the handle is adapting; false means every
	// decision is the kernel's static Plan.Runs.
	Adaptive bool
	// Observations counts observed extents; RunDecisions and
	// BatchDecisions count how often each path was chosen; Flips sums
	// mode changes across size classes.
	Observations   uint64
	RunDecisions   uint64
	BatchDecisions uint64
	Flips          uint64
	// Classes lists the per-window-size-class state, smallest class
	// first, omitting classes that never observed an extent.
	Classes []PolicyClassStats
}

// Consumer returns the named contiguity-policy handle, creating it on
// first use.  Handles are cached by name, so every caller naming the
// same consumer shares one adaptive state — the per-consumer policy the
// subsystems register themselves under.
func (k *Kernel) Consumer(name string) *MapConsumer {
	k.consumersMu.Lock()
	defer k.consumersMu.Unlock()
	if k.consumers == nil {
		k.consumers = make(map[string]*MapConsumer)
	}
	if c, ok := k.consumers[name]; ok {
		return c
	}
	c := &MapConsumer{k: k, name: name, adaptive: k.Plan.Adaptive, pageWindow: pageRecentWindow}
	if cap := k.Plan.MapCapacity; cap > 0 && uint64(cap) < c.pageWindow {
		c.pageWindow = uint64(cap)
	}
	if c.adaptive {
		for i := range c.classes {
			c.classes[i].run = true // historical Auto behaviour until observed
		}
		c.pageSeen = make([]uint64, k.M.Phys.Frames()+1)
	}
	k.consumers[name] = c
	return c
}

// PolicyStats snapshots every registered consumer's policy state, sorted
// by consumer name.
func (k *Kernel) PolicyStats() []PolicyStats {
	k.consumersMu.Lock()
	cs := make([]*MapConsumer, 0, len(k.consumers))
	for _, c := range k.consumers {
		cs = append(cs, c)
	}
	k.consumersMu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	out := make([]PolicyStats, len(cs))
	for i, c := range cs {
		out[i] = c.PolicyStats()
	}
	return out
}

// classIdx buckets a window size: 2 pages -> 0, 3-4 -> 1, 5-8 -> 2,
// 9-16 -> 3, 17-32 -> 4, larger -> 5.
func classIdx(n int) int {
	idx, limit := 0, 2
	for n > limit && idx < contigClassCount-1 {
		idx++
		limit <<= 1
	}
	return idx
}

// UseRuns decides whether this consumer should map the given multi-page
// extent as a contiguous run, and — when adapting — records the
// extent's reuse observation first, so the decision reflects it.  Under
// the static policies it is exactly the kernel's Plan.Runs.
// The adaptive bookkeeping is charged to the calling context (one lock
// round trip plus one MapperOp-class bookkeeping charge per extent):
// the policy's own cost must show up in the simulated cycles it is
// judged by.
func (c *MapConsumer) UseRuns(ctx *smp.Context, pages []*vm.Page) bool {
	if !c.adaptive {
		return c.k.Plan.Runs
	}
	if len(pages) < 2 {
		return false
	}
	ctx.ChargeLock()
	ctx.Charge(ctx.Cost().MapperOp)
	phys := c.k.M.Phys
	tiered := phys.Tiered()
	c.mu.Lock()
	cl := &c.classes[classIdx(len(pages))]
	sig, hot := c.observe(cl, pages)
	run := cl.run
	if run {
		c.runDecisions++
	} else {
		c.batchDecs++
	}
	if tiered {
		c.tierPages += uint64(len(pages))
		for _, pg := range pages {
			if f := pg.Frame(); f != 0 && !phys.SlowFrame(f) {
				c.tierFast++
			}
		}
	}
	c.mu.Unlock()
	// The tier keeper takes its own locks and may migrate, so it runs
	// outside the consumer lock; the reuse verdict travels with the call.
	if tiered && c.k.tier != nil {
		c.k.tier.Note(ctx, sig, pages, hot)
	}
	return run
}

// observe folds one extent into the reuse EWMAs of its size class and,
// on an epoch boundary, re-decides the class's mode with hysteresis.
// It returns the extent's signature and the tier-placement verdict: hot
// means this exact extent repeated within its recency window while the
// class's extent-reuse EWMA clears tierHotEWMA — the same smoothed
// signal the run/batch flip reads, reused as the promotion hint.
// Caller holds c.mu.
func (c *MapConsumer) observe(cl *contigClass, pages []*vm.Page) (sig uint64, hot bool) {
	c.observations++
	seen := 0
	for _, pg := range pages {
		f := pg.Frame()
		if at := c.pageSeen[f]; at != 0 && c.pageClock-(at-1) <= c.pageWindow {
			seen++
		}
		c.pageClock++
		c.pageSeen[f] = c.pageClock
	}
	pageReuse := float64(seen) / float64(len(pages))

	// vm.ExtentID keys the logical extent: on a pool that never migrates
	// it hashes exactly the frame sequence the page-set window cache
	// revives by, so "extent reuse high" predicts "revives will hit" by
	// construction — and when migration moves an extent's frames (the
	// tier keeper's promotions, defragmentation), the identity follows
	// the pages, exactly as the remapped-in-place parked window does.
	sig = vm.ExtentID(pages)
	extReuse := 0.0
	for _, seen := range c.extSeen[:min(c.extClock, extentRecentWindow)] {
		if seen == sig {
			extReuse = 1.0
			break
		}
	}
	c.extSeen[c.extClock%extentRecentWindow] = sig
	c.extClock++

	cl.pageEWMA += adaptiveAlpha * (pageReuse - cl.pageEWMA)
	cl.extEWMA += adaptiveAlpha * (extReuse - cl.extEWMA)
	cl.obs++
	if cl.obs%adaptiveEpoch == 0 {
		score := cl.pageEWMA * (1 - cl.extEWMA)
		switch {
		case cl.run && score > adaptiveFlipToBatch:
			cl.run = false
			cl.flips++
		case !cl.run && score < adaptiveFlipToRun:
			cl.run = true
			cl.flips++
		}
	}
	hot = extReuse > 0 && cl.extEWMA >= tierHotEWMA
	return sig, hot
}

// tierCounts snapshots the consumer's tier placement counters (pages
// observed, fast-tier resident at observation).
func (c *MapConsumer) tierCounts() (pages, fast uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tierPages, c.tierFast
}

// PolicyStats snapshots the handle's policy state.
func (c *MapConsumer) PolicyStats() PolicyStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := PolicyStats{
		Name:           c.name,
		Adaptive:       c.adaptive,
		Observations:   c.observations,
		RunDecisions:   c.runDecisions,
		BatchDecisions: c.batchDecs,
	}
	limit := 2
	for i := range c.classes {
		cl := &c.classes[i]
		ps.Flips += cl.flips
		if cl.obs > 0 {
			mode := "batch"
			if cl.run {
				mode = "run"
			}
			ps.Classes = append(ps.Classes, PolicyClassStats{
				MaxPages:        limit,
				Mode:            mode,
				PageReuseEWMA:   cl.pageEWMA,
				ExtentReuseEWMA: cl.extEWMA,
				Observations:    cl.obs,
				Flips:           cl.flips,
			})
		}
		limit <<= 1
	}
	return ps
}
