// Command bench is the repo's benchmark: five workloads, measured in two
// currencies (simulated cycles and the simulator's own host time), end to
// end and layer by layer.  It prints every metric BENCHMARK.json names,
// with its unit, checks the outputs it produces, and exits non-zero if a
// check fails.  README.md in this directory says what each workload and
// metric is for.
//
// Usage:
//
//	go run ./bench -seed N [-workload W] [-trace 0|1] [-seconds S] [-quick]
//	               [-out f.json] [-trace-out spans.json]
//	go run ./bench -compare a.json b.json
//
// Without -trace both passes run: the untraced pass (one sampling rep,
// then host-timed reps for -seconds) gives the end-to-end metrics, the
// traced pass (one rep at an eighth of the ops, a span around every call
// the driver makes into a layer) the per-layer ones.  With one workload
// and one pass selected the last line of output is a JSON object for the
// harness that runs BENCHMARK.json's command (bench/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"sfbuf/internal/kernel"
)

// options selects what measure runs.
type options struct {
	seed     uint64
	seconds  float64 // host time the timed reps fill
	minReps  int     // timed reps that run even when seconds is already spent
	quick    bool
	timed    bool // untraced pass: end-to-end metrics
	traced   bool // traced pass: per-layer metrics
	traceOut string
}

// Rep counts that do not come from -seconds.
const (
	minTimedReps  = 3 // what main passes as options.minReps
	globalRefReps = 3 // reps of the global-lock comparator; the median counts
	traceDiv      = 8 // the traced rep and its twin run 1/8 of the ops
)

// measure runs one workload: always the sampling rep, then the passes
// the options select.
func measure(w *workload, o options) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]value{}}

	// Every rep starts from a collected heap whose free memory has gone
	// back to the OS, as a fresh process would: without the collection,
	// alternate reps boot into alternate addresses and hot's throughput
	// alternates by 5%; without the release, the runtime's background
	// scavenger returns the last rep's garbage while the next one runs, and
	// how far it got decides how many page faults serve takes.
	run := func(e env) (*rep, error) {
		debug.FreeOSMemory()
		e.seed, e.quick = o.seed, o.quick
		return w.run(&e)
	}

	// Sampling rep: untimed, records each op's simulated cycles.
	r0, err := run(env{div: 1, sample: true})
	if err != nil {
		return nil, err
	}
	res.absorb(r0)
	res.simMetrics(r0)
	res.set(endToEnd, "host_allocs_per_page", float64(r0.mallocs)/float64(r0.pages), 1, nil)
	res.Notes = append(res.Notes, r0.note...)

	if o.timed {
		var setup, rate, allocs, live []float64
		begin := time.Now()
		for len(rate) < o.minReps || time.Since(begin).Seconds() < o.seconds {
			r, err := run(env{div: 1})
			if err != nil {
				return nil, err
			}
			res.absorb(r)
			if r.simTotals != r0.simTotals {
				res.failCheck("rep %d: simulated totals differ from the sampling rep's: %+v vs %+v",
					len(rate)+1, r.simTotals, r0.simTotals)
			}
			setup = append(setup, float64(r.setupNs)/1e9)
			rate = append(rate, float64(r.pages)/(float64(r.runNs)/1e9))
			allocs = append(allocs, float64(r.mallocs)/float64(r.pages))
			live = append(live, r.liveMB)
		}
		res.Reps = len(rate)
		res.set(endToEnd, "setup_s", median(setup), len(setup), setup)
		res.set(endToEnd, "host_pages_per_s", median(rate), len(rate), rate)
		res.set(endToEnd, "host_allocs_per_page", median(allocs), len(allocs), allocs)
		res.set(endToEnd, "host_live_mb", median(live), len(live), live)
	}

	if o.traced {
		if err := res.tracedPass(w, o, run); err != nil {
			return nil, err
		}
	}
	res.set(endToEnd, "fail_frac", float64(res.Failed)/float64(res.Attempted), 0, nil)
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedPass runs one rep with a span around every call into a layer,
// and its untraced twin at the same size, whose throughput over the
// traced rep's is the tracing overhead.
func (res *result) tracedPass(w *workload, o options, run func(env) (*rep, error)) error {
	twin, err := run(env{div: traceDiv})
	if err != nil {
		return err
	}
	res.absorb(twin)
	spans := 1 << 20
	if o.quick {
		spans = 1 << 17
	}
	tr := newTracer(spans)
	r, err := run(env{div: traceDiv, tr: tr})
	if err != nil {
		return err
	}
	res.absorb(r)
	if r.simTotals != twin.simTotals {
		res.failCheck("tracing changed a simulated total: %+v vs %+v", r.simTotals, twin.simTotals)
	}
	if tr.dropped > 0 {
		res.failCheck("span buffer overflowed by %d spans", tr.dropped)
	}
	// The parts sum: the driver makes no charged call outside a span, so
	// the top-level spans' cycles are the machine's, exactly.
	agg, top := tr.aggregate()
	if top != r.allCycles {
		res.failCheck("parts do not sum: top-level spans charged %d cycles, the machine %d", top, r.allCycles)
	}
	res.layerMetrics(r, &agg)
	rate := func(r *rep) float64 { return float64(r.pages) / float64(r.runNs) }
	res.set(perLayer, "trace.overhead_ratio", rate(twin)/rate(r), 0, nil)
	res.Notes = append(res.Notes, fmt.Sprintf("traced rep: %d spans over %d pages", len(tr.spans), r.pages))

	if w.globalRef {
		var ns []float64
		for i := 0; i < globalRefReps; i++ {
			g, err := run(env{div: traceDiv, cache: kernel.CacheGlobal})
			if err != nil {
				return err
			}
			res.absorb(g)
			ns = append(ns, float64(g.runNs)/float64(g.ops))
		}
		res.set(perLayer, "sfbuf.global_ref_ns", median(ns), len(ns), ns)
	}
	if o.traceOut != "" {
		return tr.writeChrome(o.traceOut, w.name)
	}
	return nil
}

// report prints one workload's metrics by name with their units.
func report(res *result, w *workload) {
	fmt.Printf("== %s: %s\n", w.name, w.why)
	fmt.Printf("   correct %v, %d ops attempted, %d failed, %d timed reps\n", res.Correct, res.Attempted, res.Failed, res.Reps)
	for _, table := range []struct {
		title string
		defs  []metricDef
	}{{"end to end", endToEnd}, {"per layer", perLayer}} {
		printed := false
		for _, d := range table.defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			if !printed {
				fmt.Printf("   %s\n", table.title)
				printed = true
			}
			line := fmt.Sprintf("     %-36s %14.6g %s", d.Name, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf("  (n=%d", v.N)
				if len(v.Samples) >= 4 {
					line += fmt.Sprintf(", spread %.1f%%", 100*spread(v.Samples))
				}
				line += ")"
			}
			fmt.Println(line)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Printf("   FAILED CHECK: %s\n", e)
	}
}

// driverLine is the harness's last line: every metric BENCHMARK.json
// lists for the pass, by name.  The harness wants each of them from every
// workload, so one that does not apply to this workload reads 0 here (and
// only here: the report and -out omit it).
func driverLine(res *result, traced bool) string {
	metrics := map[string]value{}
	for _, d := range endToEnd {
		// Gated end-to-end metrics belong to the untraced pass's line; the
		// rest ride with the per-layer ones, as BENCHMARK.json lists them.
		if (d.Gate == 0) == traced {
			metrics[d.Name] = value{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = value{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Quick     bool               `json:"quick"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	var (
		workloadF = flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 10, "host seconds the timed reps of a workload fill")
		trace     = flag.Int("trace", -1, "0: untraced pass only, 1: traced pass only (default: both)")
		quick     = flag.Bool("quick", false, "about 1/20 size, three timed reps: a smoke run")
		out       = flag.String("out", "", "write the results as JSON to this file")
		traceOut  = flag.String("trace-out", "", "write the traced rep's spans (Chrome trace JSON) to this file")
		compare   = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	// The collector stays off inside a rep and runs between reps (rep.live
	// forces it), under a memory limit as the backstop: on a shared 2-core
	// box a concurrent mark phase waits milliseconds for its worker thread
	// with the write barrier up, which made host throughput bistable.
	// What the program allocates is its own pair of metrics.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(2 << 30)
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	run := workloadList
	if *workloadF != "all" {
		w := findWorkload(*workloadF)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadF, strings.Join(names, ", "))
			os.Exit(2)
		}
		run = []workload{*w}
	}
	if *traceOut != "" && len(run) != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace-out needs one -workload")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, minReps: minTimedReps, quick: *quick, timed: *trace != 1, traced: *trace != 0, traceOut: *traceOut}
	if o.quick {
		o.seconds = 0
	}
	file := outFile{Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Workloads: map[string]*result{}}
	ok := true
	var last *result
	for i := range run {
		res, err := measure(&run[i], o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", run[i].name, err)
			os.Exit(1)
		}
		report(res, &run[i])
		file.Workloads[run[i].name] = res
		ok = ok && res.Correct
		last = res
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if len(run) == 1 && *trace >= 0 {
		fmt.Println(driverLine(last, *trace == 1))
	}
	if !ok {
		os.Exit(1)
	}
}
