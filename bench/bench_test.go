package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/experiments"
	"sfbuf/internal/kernel"
	"sfbuf/internal/workloads"
)

// The tests assert relations (the benchmark against the code it mirrors,
// a run against its twin), never absolute numbers: a change that moves a
// number on purpose must not have to edit this directory.

// quickResults runs every workload once in quick mode, both passes, and
// shares the results between the tests that read them.
var quickResults = sync.OnceValues(func() (map[string]*result, error) {
	out := map[string]*result{}
	for i := range workloadList {
		res, err := measure(&workloadList[i], options{seed: 42, quick: true, minReps: 1, timed: true, traced: true})
		if err != nil {
			return nil, err
		}
		out[workloadList[i].name] = res
	}
	return out, nil
})

// TestQuickSmoke: all five workloads and the traced pass pass their own
// output checks.  measure folds these into Correct: the translated frame
// is the page's on every op, allocs equal frees at the end of every rep,
// the timed rep repeats the sampling rep's simulated totals, tracing
// changes none of them, figures moves the configured byte counts, and the
// top-level spans' cycles sum to the machine's (the parts sum).
func TestQuickSmoke(t *testing.T) {
	results, err := quickResults()
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range results {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		if _, ok := res.Metrics["trace.overhead_ratio"]; !ok {
			t.Errorf("%s: no trace.overhead_ratio", name)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON: BENCHMARK.json declares exactly the workloads and
// metrics this package has, every declared metric is printed with its
// unit by some workload, and every printed metric is declared.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloadList[i].name)
		}
	}
	declared := map[string]string{} // name -> unit
	var gated, ungated []metricDef
	for _, d := range endToEnd {
		if d.Gate > 0 {
			gated = append(gated, d)
		} else {
			ungated = append(ungated, d)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("end_to_end: %d declared, %d gated here", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		if d := gated[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Gate {
			t.Errorf("end_to_end %d: declared %+v, here %+v", i, m, d)
		}
		declared[m.Name] = m.Unit
	}
	layer := append(ungated, perLayer...)
	if len(bj.PerLayer) != len(layer) {
		t.Fatalf("per_layer: %d declared, %d here", len(bj.PerLayer), len(layer))
	}
	for i, m := range bj.PerLayer {
		if d := layer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: declared %+v, here %+v", i, m, d)
		}
		declared[m.Name] = m.Unit
	}
	if len(endToEnd) != 12 || len(perLayer) != 67 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 12 and 67", len(endToEnd), len(perLayer))
	}

	results, err := quickResults()
	if err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for name, res := range results {
		for m, v := range res.Metrics {
			if unit, ok := declared[m]; !ok || v.Unit != unit || unit == "" {
				t.Errorf("%s prints %s in %q; BENCHMARK.json declares %q (declared: %v)", name, m, v.Unit, unit, ok)
			}
			printed[m] = true
		}
		// The harness line carries every declared name of its pass.
		for _, traced := range []bool{false, true} {
			var line struct{ Metrics map[string]value }
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			want := len(gated)
			if traced {
				want = len(layer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s: harness line (trace %v) has %d metrics, want %d", name, traced, len(line.Metrics), want)
			}
		}
	}
	for m := range declared {
		if !printed[m] {
			t.Errorf("%s is declared and no workload prints it", m)
		}
	}
}

// TestServeMatchesRunServe: the benchmark assembles the serving run from
// the public pieces itself; the assembly must reproduce workloads.RunServe
// exactly at the canonical seed.
func TestServeMatchesRunServe(t *testing.T) {
	e := &env{seed: experiments.ServeSeed, quick: true, div: 1}
	_, got, err := serve(e)
	if err != nil {
		t.Fatal(err)
	}
	k, err := experiments.BootServe(kernel.CacheSharded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workloads.RunServe(k, experiments.ServeCanonicalConfig(e.scale(experiments.ServeClients), 0))
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		hash          uint64
		completed     int
		bytes         int64
		walks, rounds uint64
		p50, p99      int64
	}
	pick := func(r *workloads.ServeResult) outcome {
		return outcome{r.TraceHash, r.Completed, r.BytesReceived, r.Walks, r.Rounds, r.P50, r.P99}
	}
	if pick(got) != pick(want) {
		t.Errorf("bench %+v\nRunServe %+v", pick(got), pick(want))
	}
}

// TestPipeMatchesFig2: the figure kernels are mirrored from
// internal/experiments; the bw_pipe improvements must equal the fig2
// experiment's at the same scale.
func TestPipeMatchesFig2(t *testing.T) {
	_, cells, err := runFigures(&env{seed: 1, quick: true, div: 1})
	if err != nil {
		t.Fatal(err)
	}
	fig2, _ := experiments.Get("fig2")
	res, err := fig2(experiments.Options{Scale: figScaleQuick})
	if err != nil {
		t.Fatal(err)
	}
	got := pipeImprovement(cells)
	for i, plat := range arch.Evaluation() {
		if want := res.Metrics["improvement_pct/"+plat.Name]; got[i] != want {
			t.Errorf("%s: bench %+.4f%%, fig2 %+.4f%%", plat.Name, got[i], want)
		}
	}
}

// TestSeedDrivesInputs: another seed gives another op stream.  (That two
// runs with one seed agree on every simulated total is checked inside
// measure, rep against rep, and so by TestQuickSmoke.)
func TestSeedDrivesInputs(t *testing.T) {
	for _, name := range []string{"hot", "churn", "extent", "serve"} {
		w := findWorkload(name)
		var reps [2]*rep
		for i := range reps {
			r, err := w.run(&env{seed: uint64(7 + i), quick: true, div: 1})
			if err != nil {
				t.Fatal(err)
			}
			reps[i] = r
		}
		if reps[0].simTotals == reps[1].simTotals {
			t.Errorf("%s: two seeds, one simulated total: the seed does not reach the op stream", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	exact := metricDef{Name: "sim", Better: "lower"}
	band := metricDef{Name: "host", Better: "higher", Bound: 0.08}
	steady := func(v float64) value { return value{Value: v, Samples: []float64{v * 0.99, v, v, v * 1.01, v}} }
	noisy := func(v float64) value {
		return value{Value: v, Samples: []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2}}
	}
	for _, c := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{exact, value{Value: 700}, value{Value: 700}, "ok"},
		{exact, value{Value: 700}, value{Value: 701}, "regression"},
		{exact, value{Value: 700}, value{Value: 650}, "ok"},
		{band, steady(100), steady(95), "ok"},
		{band, steady(100), steady(90), "regression"},
		{band, steady(100), noisy(97), "unresolved"},
		{band, noisy(100), noisy(200), "ok"}, // every run of b beats every run of a
	} {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles: %v %v, want 2.75 8.25", q1, q3)
	}
}
