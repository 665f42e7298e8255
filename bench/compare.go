package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the median;
// 0 for fewer than two samples or for samples that are all equal.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if q1 == q3 {
		return 0
	}
	return math.Abs((q3 - q1) / median(v))
}

// verdict judges one end-to-end metric of workload b against baseline a.
func verdict(d metricDef, a, b value) (string, float64) {
	worse := b.Value - a.Value // how far b is on the bad side of a
	if d.Better == "higher" {
		worse = -worse
	}
	rel := 0.0
	if a.Value != 0 {
		rel = worse / math.Abs(a.Value)
	} else if worse != 0 {
		rel = math.Inf(int(math.Copysign(1, worse)))
	}
	if math.Abs(worse) <= d.Abs {
		return "ok", rel
	}
	if d.Bound == 0 { // exact: a deterministic simulated value
		if worse > 0 {
			return "regression", rel
		}
		return "ok", rel
	}
	if sp := math.Max(spread(a.Samples), spread(b.Samples)); sp > d.Bound {
		// Too noisy to call, unless every run of b beats every run of a.
		if !allBetter(d, a.Samples, b.Samples) {
			return "unresolved", rel
		}
	}
	if rel > d.Bound {
		return "regression", rel
	}
	return "ok", rel
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// compareFiles applies the end-to-end bounds per workload and metric to
// two -out files (baseline first) and returns the exit status: 1 on any
// regression.  Per-layer metrics are listed with their change and no
// verdict: they say where a difference sits, not whether it is allowed.
func compareFiles(pathA, pathB string) int {
	var files [2]outFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	if files[0].Seed != files[1].Seed || files[0].Quick != files[1].Quick {
		fmt.Printf("note: seeds or sizes differ (%d/%v vs %d/%v): exact metrics will not match\n",
			files[0].Seed, files[0].Quick, files[1].Seed, files[1].Quick)
	}
	status := 0
	for _, w := range workloadList {
		a, b := files[0].Workloads[w.name], files[1].Workloads[w.name]
		if a == nil || b == nil {
			continue
		}
		fmt.Printf("== %s\n", w.name)
		for _, d := range endToEnd {
			va, okA := a.Metrics[d.Name]
			vb, okB := b.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			v, rel := verdict(d, va, vb)
			if v == "regression" {
				status = 1
			}
			bound := "exact"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
			}
			fmt.Printf("   %-10s %-26s %14.6g -> %14.6g %-12s worse by %+.2f%% (bound %s)\n",
				v, d.Name, va.Value, vb.Value, d.Unit, 100*rel, bound)
		}
		for _, d := range perLayer {
			va, okA := a.Metrics[d.Name]
			vb, okB := b.Metrics[d.Name]
			if okA && okB && va.Value != vb.Value {
				fmt.Printf("   %-10s %-36s %14.6g -> %14.6g %s\n", "layer", d.Name, va.Value, vb.Value, d.Unit)
			}
		}
	}
	return status
}
