// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6).  Each experiment boots fresh simulated kernels,
// runs the paper's workload with the paper's parameters, and reports the
// same rows the paper plots: bandwidths, transaction rates, throughputs,
// and local/remote TLB invalidation counts.
//
// Experiments accept an Options.Scale factor so the same code serves both
// unit tests (tiny scales, seconds) and cmd/sfbench (full paper scale).
// Scaling preserves the ratios that drive the results — most importantly
// the mapping-cache size relative to each workload's footprint.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies workload sizes; 1.0 is the paper's configuration.
	Scale float64
	// Platforms lists the machines to run on; nil means the paper's five.
	Platforms []arch.Platform
	// Verbose enables progress output through Logf.
	Logf func(format string, args ...any)
}

// DefaultOptions returns the paper-scale configuration.
func DefaultOptions() Options {
	return Options{Scale: 1.0}
}

func (o Options) platforms() []arch.Platform {
	if len(o.Platforms) > 0 {
		return o.Platforms
	}
	return arch.Evaluation()
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// scaleInt scales n by the option's factor with a floor.
func (o Options) scaleInt(n int, floor int) int {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n) * s)
	if v < floor {
		return floor
	}
	return v
}

// scaleInt64 scales n with a floor.
func (o Options) scaleInt64(n int64, floor int64) int64 {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	v := int64(float64(n) * s)
	if v < floor {
		return floor
	}
	return v
}

// Result is one reproduced table or figure.
type Result struct {
	// ID is the experiment identifier, e.g. "fig2".
	ID string
	// Title describes the experiment as the paper captions it.
	Title string
	// Columns are the table headers.
	Columns []string
	// Rows are formatted cells.
	Rows [][]string
	// Notes carry methodology remarks and the paper's expectations.
	Notes []string
	// Metrics exposes headline values (key -> value) for the tests that
	// gate each experiment and for the repo benchmark.
	Metrics map[string]float64
}

// SetMetric records a headline value.
func (r *Result) SetMetric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[key] = v
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// registry maps experiment ids to runners, populated by init() in each
// experiment file.
var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// IDs returns the registered experiment ids in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	return out
}

// Get returns the runner for id.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// RunAll executes every experiment in order, returning results keyed by
// id in registration order.
func RunAll(o Options) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		o.logf("running %s...", id)
		res, err := registry[id](o)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// --- shared measurement helpers ---

// runMemo caches measurement runs within a process.  The paper's figure
// pairs (8/9/10, 15/17, 16/18, 19/20) report different views of the SAME
// measured runs, so the corresponding experiments share runs here too —
// both faithful and far cheaper.  Keys embed every run parameter.
var runMemo sync.Map

// memoizedRun returns the cached value for key or computes and caches it.
// Errors are not cached.
func memoizedRun[T any](key string, compute func() (T, error)) (T, error) {
	if v, ok := runMemo.Load(key); ok {
		return v.(T), nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	runMemo.Store(key, v)
	return v, nil
}

// ClearRunCache drops memoized measurements (tests that need fresh runs).
func ClearRunCache() {
	runMemo.Range(func(k, _ any) bool {
		runMemo.Delete(k)
		return true
	})
}

// measurement captures one configuration's run.
type measurement struct {
	plat      arch.Platform
	kernel    string
	elapsed   cycles.Cycles
	bytes     int64
	events    int64
	localInv  uint64
	remoteInv uint64
	hitRate   float64
}

func (m measurement) mbps() float64 {
	return cycles.MBps(m.bytes, m.elapsed, m.plat.FreqGHz)
}

func (m measurement) mbitps() float64 {
	return cycles.Mbps(m.bytes, m.elapsed, m.plat.FreqGHz)
}

func (m measurement) perSec() float64 {
	return cycles.PerSecond(m.events, m.elapsed, m.plat.FreqGHz)
}

// snapshotInto fills the invalidation counters from the machine.
func (m *measurement) snapshotInto(k *kernel.Kernel) {
	s := k.M.SnapshotCounters()
	m.localInv = s.LocalInv
	m.remoteInv = s.RemoteInvIssued
	m.hitRate = k.Map.Stats().HitRate()
}

// pct formats an improvement of a over b in percent.
func pct(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (a/b-1)*100)
}

// pctVal returns the improvement of a over b in percent.
func pctVal(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

func fmtF(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtU(v uint64) string { return fmt.Sprintf("%d", v) }

// sortedKeys is a small helper for deterministic metric listings.
func sortedKeys[M ~map[string]float64](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// serializedCycles returns elapsed cycles for ping-pong workloads (pipe,
// dd, PostMark, netperf): total CPU work, since their logical threads
// hand off rather than overlap.
func serializedCycles(m *smp.Machine) cycles.Cycles { return m.TotalCycles() }

// parallelCycles returns elapsed cycles for the web server, the one
// workload that exploits multiple CPUs (Section 6.2).
func parallelCycles(m *smp.Machine) cycles.Cycles { return m.ParallelCycles() }
