package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric.  BENCHMARK.json repeats these tables and
// TestBenchmarkJSON holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far the median may worsen, as a share of the baseline,
	// before -compare calls it a regression; 0 means exact.  A difference
	// within Abs, in the metric's unit, is no difference at all.
	Bound float64
	// Gate is the metric's bound in BENCHMARK.json's end_to_end list.  The
	// harness that reads that file wants every end-to-end metric from every
	// workload, never 0, and steady across seeds; an end-to-end metric that
	// cannot promise that (it is 0 on some workload, or applies to some
	// only) has Gate 0, is listed there under per_layer, and is held to its
	// Bound by -compare alone.  The harness compares sets of runs made
	// minutes apart on a shared box, -compare the reps of two runs, so a
	// host metric's Gate is wider than its Bound.
	Gate float64
	Abs  float64
}

// endToEnd is what a user of the system sees, in two currencies:
// simulated cycles (sim_*, what the modelled kernel would cost; exact)
// and the simulator's own host time and memory (host_*, setup_s).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: 0.25},
	{Name: "host_pages_per_s", Unit: "pages/s", Better: "higher", Bound: 0.08, Gate: 0.25},
	{Name: "host_live_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.10},
	{Name: "sim_cycles_per_page", Unit: "cycles/page", Better: "lower", Gate: 0.05},
	// The Go runtime's own few allocations per rep are not the program's.
	{Name: "host_allocs_per_page", Unit: "allocs/page", Better: "lower", Bound: 0.01, Abs: 0.001},
	{Name: "sim_op_p50_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim_op_p99_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sim_remote_inv_per_kpage", Unit: "inv/kpage", Better: "lower"},
	{Name: "sim_local_inv_per_kpage", Unit: "inv/kpage", Better: "lower"},
	{Name: "sim_speedup_vs_original", Unit: "ratio", Better: "higher"},
	{Name: "paper_err_pp", Unit: "pp", Better: "lower"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// perLayer is measured in the traced pass: host ns and simulated cycles
// of the driver's own calls into each package, and ratios of the
// package's public counters over the same interval.
var perLayer = []metricDef{
	{Name: "sfbuf.alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "sfbuf.alloc_cyc", Unit: "cycles", Better: "lower"},
	{Name: "sfbuf.free_ns", Unit: "ns", Better: "lower"},
	{Name: "sfbuf.free_cyc", Unit: "cycles", Better: "lower"},
	{Name: "sfbuf.allocrun_ns", Unit: "ns/page", Better: "lower"},
	{Name: "sfbuf.allocrun_cyc", Unit: "cycles/page", Better: "lower"},
	{Name: "sfbuf.freerun_ns", Unit: "ns/page", Better: "lower"},
	{Name: "sfbuf.freerun_cyc", Unit: "cycles/page", Better: "lower"},
	{Name: "sfbuf.allocbatch_ns", Unit: "ns/page", Better: "lower"},
	{Name: "sfbuf.freebatch_ns", Unit: "ns/page", Better: "lower"},
	{Name: "sfbuf.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sfbuf.freelist_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sfbuf.reclaimed_per_round", Unit: "count", Better: "higher"},
	{Name: "sfbuf.run_revive_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sfbuf.laundered_per_launder", Unit: "count", Better: "higher"},
	{Name: "sfbuf.wouldblock_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "sfbuf.global_ref_ns", Unit: "ns", Better: "lower"},
	{Name: "pmap.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "pmap.translate_cyc", Unit: "cycles", Better: "lower"},
	{Name: "pmap.translaterun_ns", Unit: "ns/page", Better: "lower"},
	{Name: "pmap.translaterun_cyc", Unit: "cycles/page", Better: "lower"},
	{Name: "pmap.walks_per_page", Unit: "1/page", Better: "lower"},
	{Name: "pmap.promotions", Unit: "count", Better: "higher"},
	{Name: "tlb.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tlb.inserts_per_page", Unit: "1/page", Better: "lower"},
	{Name: "tlb.evictions_per_page", Unit: "1/page", Better: "lower"},
	{Name: "smp.locks_per_page", Unit: "1/page", Better: "lower"},
	{Name: "smp.ipis_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "smp.inv_per_flush", Unit: "count", Better: "higher"},
	{Name: "smp.handler_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "smp.daemon_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "kva.allocs_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "kva.splits_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "kva.coalesces_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "kva.largest_free_run_pages", Unit: "pages", Better: "higher"},
	{Name: "vm.allocn_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "vm.splits_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "vm.coalesces_per_kpage", Unit: "1/kpage", Better: "lower"},
	{Name: "kernel.boot_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.useruns_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.useruns_cyc", Unit: "cycles", Better: "lower"},
	{Name: "kernel.run_decision_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kernel.sendwindow_mean_pages", Unit: "pages", Better: "higher"},
	{Name: "kernel.sendwindow_resizes_per_conn", Unit: "count", Better: "lower"},
	{Name: "netstack.handle_ack_ns", Unit: "ns", Better: "lower"},
	{Name: "netstack.handle_ack_cyc", Unit: "cycles", Better: "lower"},
	{Name: "netstack.handle_data_ns", Unit: "ns", Better: "lower"},
	{Name: "netstack.enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "netstack.stalls_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "netstack.retransmits_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "netstack.fallbacks_per_kreq", Unit: "1/kreq", Better: "lower"},
	{Name: "netstack.netperf_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "netstack.netperf_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "vnet.run_self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "vnet.events_per_mb", Unit: "1/MB", Better: "lower"},
	{Name: "vnet.dropped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "workloads.synth_trace_ns", Unit: "ns", Better: "lower"},
	{Name: "workloads.build_corpus_ns", Unit: "ns", Better: "lower"},
	{Name: "memdisk.dd_fit_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "memdisk.dd_fit_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "memdisk.dd_exceed_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "memdisk.dd_exceed_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "pipe.bwpipe_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "pipe.bwpipe_cyc_per_page", Unit: "cycles/page", Better: "lower"},
	{Name: "fs.postmark_ns_per_txn", Unit: "ns/txn", Better: "lower"},
	{Name: "fs.postmark_cyc_per_txn", Unit: "cycles/txn", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// spanMetrics names the per-layer metrics each span feeds: host ns per
// unit (median over calls) and simulated cycles per unit (mean).  An empty
// name means the issue asks for no such metric.
var spanMetrics = [numSpanNames]struct{ ns, cyc string }{
	spKernelBoot:           {"kernel.boot_ns", ""},
	spVMAllocN:             {"vm.allocn_ns_per_page", ""},
	spSfbufAlloc:           {"sfbuf.alloc_ns", "sfbuf.alloc_cyc"},
	spSfbufFree:            {"sfbuf.free_ns", "sfbuf.free_cyc"},
	spSfbufAllocRun:        {"sfbuf.allocrun_ns", "sfbuf.allocrun_cyc"},
	spSfbufFreeRun:         {"sfbuf.freerun_ns", "sfbuf.freerun_cyc"},
	spSfbufAllocBatch:      {"sfbuf.allocbatch_ns", ""},
	spSfbufFreeBatch:       {"sfbuf.freebatch_ns", ""},
	spPmapTranslate:        {"pmap.translate_ns", "pmap.translate_cyc"},
	spPmapTranslateRun:     {"pmap.translaterun_ns", "pmap.translaterun_cyc"},
	spKernelUseRuns:        {"kernel.useruns_ns", "kernel.useruns_cyc"},
	spWorkloadsSynthTrace:  {"workloads.synth_trace_ns", ""},
	spWorkloadsBuildCorpus: {"workloads.build_corpus_ns", ""},
	spNetstackEnqueue:      {"netstack.enqueue_ns", ""},
	spNetstackHandleAck:    {"netstack.handle_ack_ns", "netstack.handle_ack_cyc"},
	spNetstackHandleData:   {"netstack.handle_data_ns", ""},
	spPipeBWPipe:           {"pipe.bwpipe_ns_per_page", "pipe.bwpipe_cyc_per_page"},
	spMemdiskDDFit:         {"memdisk.dd_fit_ns_per_page", "memdisk.dd_fit_cyc_per_page"},
	spMemdiskDDExceed:      {"memdisk.dd_exceed_ns_per_page", "memdisk.dd_exceed_cyc_per_page"},
	spFsPostmark:           {"fs.postmark_ns_per_txn", "fs.postmark_cyc_per_txn"},
	spNetstackNetperf:      {"netstack.netperf_ns_per_page", "netstack.netperf_cyc_per_page"},
}

// setupSpan reports whether a span is set-up rather than measured phase.
func setupSpan(n spanName) bool {
	return n == spKernelBoot || n == spVMAllocN || n == spWorkloadsSynthTrace || n == spWorkloadsBuildCorpus
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*env) (*rep, error)
	// globalRef marks the single-page loops, which the traced pass also
	// runs on the global-lock cache (sfbuf.global_ref_ns).
	globalRef bool
}

var workloadList = []workload{
	{name: "hot", run: func(e *env) (*rep, error) { return runSingle(e, microEntries/2) }, globalRef: true,
		why: "working set is half the mapping cache: the hit path is all of the work and reclaim, shootdowns, KVA and run windows do none"},
	{name: "churn", run: func(e *env) (*rep, error) { return runSingle(e, 4*microEntries) }, globalRef: true,
		why: "working set is 4x the cache: misses, reclaim rounds, the shootdown queue and PTE writes do most of the work"},
	{name: "extent", run: runExtent,
		why: "multi-page extents through the adaptive policy: the same sfbuf layer used through run windows and batches, revives beside cold installs"},
	{name: "serve", run: runServe,
		why: "1000 lossy connections through vnet, netstack and kernel.SendWindow: the macro number an unseen regression moved, starting cold"},
	{name: "figures", run: func(e *env) (*rep, error) { r, _, err := runFigures(e); return r, err },
		why: "the paper's engines on bw_pipe, dd, PostMark and netperf: must stay bit-identical, and the only workload with a paper reference"},
}

func findWorkload(name string) *workload {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i]
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of a sorted sample, as
// internal/workloads computes serve's.
func percentile(sorted []int64, p float64) int64 {
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a median or percentile; Samples are the
	// per-rep values of a host metric, from which -compare takes spread.
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is one workload's outcome.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Reps      int              `json:"reps"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func (res *result) set(defs []metricDef, name string, v float64, n int, samples []float64) {
	for _, d := range defs {
		if d.Name == name {
			res.Metrics[name] = value{Value: v, Unit: d.Unit, N: n, Samples: samples}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// failCheck records a failed check of the harness's own (a rep's are in
// rep.fail).
func (res *result) failCheck(format string, args ...any) {
	res.Failed++
	res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
}

func (res *result) absorb(r *rep) {
	res.Attempted += r.ops
	res.Failed += r.failed
	for _, e := range r.errs {
		if len(res.Errors) < 16 {
			res.Errors = append(res.Errors, e)
		}
	}
}

// simMetrics fills the simulated end-to-end metrics from the sampling rep.
func (res *result) simMetrics(r *rep) {
	perK := func(n uint64) float64 { return float64(n) * 1000 / float64(r.simPages) }
	res.set(endToEnd, "sim_cycles_per_page", float64(r.cycles)/float64(r.simPages), 0, nil)
	res.set(endToEnd, "sim_remote_inv_per_kpage", perK(r.ctr.RemoteInvIssued), 0, nil)
	res.set(endToEnd, "sim_local_inv_per_kpage", perK(r.ctr.LocalInv), 0, nil)
	if n := len(r.opCyc); n > 0 {
		s := append([]int64(nil), r.opCyc...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		res.set(endToEnd, "sim_op_p50_cycles", float64(percentile(s, 0.50)), n, nil)
		res.set(endToEnd, "sim_op_p99_cycles", float64(percentile(s, 0.99)), n, nil)
	}
	if r.speedup != 0 {
		res.set(endToEnd, "sim_speedup_vs_original", r.speedup, 0, nil)
		res.set(endToEnd, "paper_err_pp", r.paperErr, 0, nil)
	}
}

// layerMetrics fills the per-layer metrics from the traced rep.
func (res *result) layerMetrics(r *rep, agg *[numSpanNames]spanAgg) {
	for n := range agg {
		a := &agg[n]
		if a.calls == 0 {
			continue
		}
		if m := spanMetrics[n]; m.ns != "" {
			res.set(perLayer, m.ns, a.nsPerUnit(), a.calls, nil)
			if m.cyc != "" {
				res.set(perLayer, m.cyc, a.cycPerUnit(), a.calls, nil)
			}
		}
	}
	c := r.counts
	pages := float64(r.simPages)
	ratio := func(name string, num, den float64) {
		if den > 0 {
			res.set(perLayer, name, num/den, 0, nil)
		}
	}
	ratio("sfbuf.hit_ratio", c["hits"], c["hits"]+c["misses"])
	ratio("sfbuf.freelist_ratio", c["freelist"], c["misses"])
	ratio("sfbuf.reclaimed_per_round", c["reclaimed"], c["reclaims"])
	ratio("sfbuf.run_revive_ratio", c["revives"], c["revives"]+c["revive_misses"])
	ratio("sfbuf.laundered_per_launder", c["laundered"], c["launders"])
	ratio("sfbuf.wouldblock_per_kpage", c["wouldblock"]*1000, pages)
	ratio("pmap.walks_per_page", float64(r.ctr.PTWalks), pages)
	res.set(perLayer, "pmap.promotions", c["promotions"], 0, nil)
	ratio("tlb.hit_ratio", c["tlb_hits"], c["tlb_lookups"])
	ratio("tlb.inserts_per_page", c["tlb_inserts"], pages)
	ratio("tlb.evictions_per_page", c["tlb_evictions"], pages)
	ratio("smp.locks_per_page", float64(r.ctr.LockAcq), pages)
	ratio("smp.ipis_per_kpage", float64(r.ctr.IPIsDelivered)*1000, pages)
	ratio("smp.inv_per_flush", float64(r.ctr.BatchedInv), float64(r.ctr.BatchedFlushes))
	ratio("smp.handler_cyc_per_page", float64(r.ctr.HandlerCycles), pages)
	ratio("smp.daemon_cyc_per_page", float64(r.ctr.DaemonCycles), pages)
	ratio("kva.allocs_per_kpage", c["kva_allocs"]*1000, pages)
	ratio("kva.splits_per_kpage", c["kva_splits"]*1000, pages)
	ratio("kva.coalesces_per_kpage", c["kva_coalesces"]*1000, pages)
	res.set(perLayer, "kva.largest_free_run_pages", c["kva_largest"], 0, nil)
	ratio("vm.splits_per_kpage", c["phys_splits"]*1000, c["phys_allocs"])
	ratio("vm.coalesces_per_kpage", c["phys_coalesces"]*1000, c["phys_allocs"])
	ratio("kernel.run_decision_ratio", c["run_dec"], c["run_dec"]+c["batch_dec"])
	ratio("kernel.sendwindow_mean_pages", c["sw_pages"], c["conns"])
	ratio("kernel.sendwindow_resizes_per_conn", c["sw_resizes"], c["conns"])
	ratio("netstack.stalls_per_kreq", c["stalls"]*1000, c["requests"])
	ratio("netstack.fallbacks_per_kreq", c["fallbacks"]*1000, c["requests"])
	if c["events"] > 0 {
		mb := float64(r.pages) * 4096 / (1 << 20)
		run := &agg[spVnetRun]
		ratio("netstack.retransmits_per_mb", c["retransmits"], mb)
		ratio("vnet.events_per_mb", c["events"], mb)
		ratio("vnet.dropped_ratio", c["dropped"], c["sent"])
		ratio("vnet.run_self_ns_per_event", float64(run.selfNs), c["events"])
		res.Notes = append(res.Notes, fmt.Sprintf(
			"vnet.run: %.1f%% of its host time and %.1f%% of its simulated cycles are its own share, outside the wrapped delivery handlers (timers netstack arms for itself: RTO, drain, probe, retry)",
			100*float64(run.selfNs)/float64(run.ns), 100*float64(run.selfCyc)/float64(run.cyc)))
	}
}
