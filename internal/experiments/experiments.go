// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6).  Each experiment boots fresh simulated kernels,
// runs the paper's workload with the paper's parameters, and reports the
// same rows the paper plots: bandwidths, transaction rates, throughputs,
// and local/remote TLB invalidation counts.
//
// Results are data.  Each table value is a Cell: a label, or a number
// with the format it renders in, optionally carrying the metric key it
// is published under.  Result.AddRow appends a row and publishes its
// keyed cells into Result.Metrics; Render formats every cell at the
// end.  The paper's two table shapes each have one builder:
// throughputTable (platform rows, one column per arm, the improvement)
// and invalidationTable (platform × arm rows of local and remote
// counts).
//
// Experiments accept an Options.Scale factor so the same code serves both
// unit tests (tiny scales, seconds) and cmd/sfbench (full paper scale).
// Scaling preserves the ratios that drive the results — most importantly
// the mapping-cache size relative to each workload's footprint.
package experiments

import (
	"fmt"
	"slices"
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
	return int(o.scaleInt64(int64(n), int64(floor)))
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

// Result is one reproduced table or figure: typed cells, formatted only
// by Render, and the metrics its keyed cells publish.
type Result struct {
	// ID is the experiment identifier, e.g. "fig2".
	ID string
	// Title describes the experiment as the paper captions it.
	Title string
	// Columns are the table headers.
	Columns []string
	// Rows are the table's cells, appended by AddRow.
	Rows [][]Cell
	// Notes carry methodology remarks and the paper's expectations.
	Notes []string
	// Metrics exposes headline values (key -> value) for the tests that
	// gate each experiment and for the repo benchmark: every keyed cell,
	// plus the few values no cell renders (SetMetric).
	Metrics map[string]float64
}

// Cell is one table value: a label, or a number with the format it
// renders in.  A cell with a Key is also a metric, published as Value
// whatever its text shows.
type Cell struct {
	// Text is a label's text; number cells leave it empty.
	Text string
	// Value is the number, and what a keyed cell publishes.
	Value float64
	// Verb formats Value: a fmt verb such as "%.2f", autoVerb for
	// fmtF's magnitude-dependent precision, or percentVerb for a
	// fraction shown as a percentage.  Labels leave it empty.
	Verb string
	// Key names the metric the cell publishes; empty publishes nothing.
	Key string
}

const (
	autoVerb    = "auto"
	percentVerb = "%"
)

func label(s string) Cell                       { return Cell{Text: s} }
func num(v float64, verb string) Cell           { return Cell{Value: v, Verb: verb} }
func auto(v float64) Cell                       { return num(v, autoVerb) }
func count[T ~int | ~int64 | ~uint64](n T) Cell { return num(float64(n), "%.0f") }

// improvement is a over b in percent; a zero baseline shows n/a and
// publishes 0.
func improvement(a, b float64) Cell {
	if b == 0 {
		return label("n/a")
	}
	return num((a/b-1)*100, "%+.0f%%")
}

// as returns the cell keyed as the metric key.
func (c Cell) as(key string) Cell {
	c.Key = key
	return c
}

// String renders the cell.
func (c Cell) String() string {
	switch c.Verb {
	case "":
		return c.Text
	case autoVerb:
		return fmtF(c.Value)
	case percentVerb:
		return fmt.Sprintf("%.1f%%", c.Value*100)
	}
	return fmt.Sprintf(c.Verb, c.Value)
}

// AddRow appends one table row and publishes its keyed cells.
func (r *Result) AddRow(cells ...Cell) {
	for _, c := range cells {
		if c.Key != "" {
			r.SetMetric(c.Key, c.Value)
		}
	}
	r.Rows = append(r.Rows, cells)
}

// SetMetric records a headline value that no cell renders.
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
	rows := make([][]string, len(r.Rows))
	for j, row := range r.Rows {
		for i, c := range row {
			cell := c.String()
			rows[j] = append(rows[j], cell)
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
	for _, row := range rows {
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

// fmtF formats v with fewer decimals the larger it is.
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

// serializedCycles returns elapsed cycles for ping-pong workloads (pipe,
// dd, PostMark, netperf): total CPU work, since their logical threads
// hand off rather than overlap.
func serializedCycles(m *smp.Machine) cycles.Cycles { return m.TotalCycles() }

// parallelCycles returns elapsed cycles for the web server, the one
// workload that exploits multiple CPUs (Section 6.2).
func parallelCycles(m *smp.Machine) cycles.Cycles { return m.ParallelCycles() }

// arm is one configuration a paper figure compares: its label (the
// Kernel or Config cell of an invalidation table), its metric-key stem
// in a throughput table, and its memoized run on one platform.
type arm struct {
	label, stem string
	run         func(arch.Platform) (measurement, error)
}

// kernelArms returns the sf_buf and original kernels as arms whose
// throughput keys are sfbuf_<unit> and original_<unit>.
func kernelArms(unit string, run func(arch.Platform, kernel.MapperKind) (measurement, error)) []arm {
	one := func(mk kernel.MapperKind, stem string) arm {
		runMK := func(p arch.Platform) (measurement, error) { return run(p, mk) }
		return arm{mk.String(), stem + "_" + unit, runMK}
	}
	return []arm{one(kernel.SFBuf, "sfbuf"), one(kernel.OriginalKernel, "original")}
}

// throughputTable fills res with the paper's throughput shape: one row
// per platform, each arm's rate, and the best sf_buf arm's improvement
// over the last arm, the original kernel.
func throughputTable(res *Result, o Options, rate func(measurement) float64, arms []arm) (*Result, error) {
	for _, plat := range o.platforms() {
		o.logf("  %s: %s", res.ID, plat.Name)
		row := []Cell{label(plat.Name)}
		vals := make([]float64, len(arms))
		for i, a := range arms {
			m, err := a.run(plat)
			if err != nil {
				return nil, err
			}
			vals[i] = rate(m)
			row = append(row, auto(vals[i]).as(a.stem+"/"+plat.Name))
		}
		imp := improvement(slices.Max(vals[:len(vals)-1]), vals[len(vals)-1])
		res.AddRow(append(row, imp.as("improvement_pct/"+plat.Name))...)
	}
	return res, nil
}

// invalidationTable fills res with the paper's invalidation shape: one
// row per platform and arm, with the local and remote TLB invalidations
// its run issued.
func invalidationTable(res *Result, o Options, arms []arm) (*Result, error) {
	for _, plat := range o.platforms() {
		o.logf("  %s: %s", res.ID, plat.Name)
		for _, a := range arms {
			m, err := a.run(plat)
			if err != nil {
				return nil, err
			}
			key := plat.Name + "/" + a.label
			res.AddRow(label(plat.Name), label(a.label),
				count(m.localInv).as("local/"+key), count(m.remoteInv).as("remote/"+key))
		}
	}
	return res, nil
}
