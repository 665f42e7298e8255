package experiments

import (
	"maps"
	"testing"

	"sfbuf/internal/arch"
)

// tinyOptions runs experiments at the smallest usable scale, restricted to
// two platforms so the whole suite stays test-sized.
func tinyOptions() Options {
	return Options{
		Scale:     0.004,
		Platforms: []arch.Platform{arch.XeonMP(), arch.OpteronMP()},
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"sec3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "ablation",
		"scale", "serve", "numa",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments, want %d: %v", len(got), len(want), got)
	}
	set := map[string]bool{}
	for _, id := range got {
		set[id] = true
	}
	for _, id := range want {
		if !set[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := Get("fig2"); !ok {
		t.Fatal("Get(fig2) failed")
	}
	if _, ok := Get("nonsense"); ok {
		t.Fatal("Get(nonsense) succeeded")
	}
}

func TestSec3MatchesSeededCosts(t *testing.T) {
	res, err := RunSec3(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// The microbenchmark must reproduce the paper's numbers to within a
	// few percent (only the first iteration's cold PTE differs).
	checks := map[string]float64{
		"local_cached/Xeon-HTT":     500,
		"local_uncached/Xeon-HTT":   1000,
		"remote/Xeon-HTT":           4000,
		"remote/Xeon-MP-HTT":        13500,
		"local_cached/Opteron-MP":   95,
		"local_uncached/Opteron-MP": 320,
		"remote/Opteron-MP":         2030,
	}
	for key, want := range checks {
		got, ok := res.Metrics[key]
		if !ok {
			t.Fatalf("missing metric %s", key)
		}
		if got < want*0.97 || got > want*1.03 {
			t.Errorf("%s = %.1f, want ~%.0f", key, got, want)
		}
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	res, err := RunFig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// sf_buf must win on every platform.
	for _, plat := range tinyOptions().Platforms {
		imp := res.Metrics["improvement_pct/"+plat.Name]
		if imp <= 0 {
			t.Errorf("%s: sf_buf did not win (%.1f%%)", plat.Name, imp)
		}
	}
	// The MP Xeon must gain more than the Opteron (mapping changes cost
	// more on i386 without a direct map).
	if res.Metrics["improvement_pct/Xeon-MP"] <= res.Metrics["improvement_pct/Opteron-MP"] {
		t.Error("Xeon-MP should gain more than Opteron-MP")
	}
}

func TestFig3SFBufEliminatesInvalidations(t *testing.T) {
	res, err := RunFig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["local/Xeon-MP/sf_buf"]; v != 0 {
		t.Errorf("sf_buf local invalidations = %v, want 0", v)
	}
	if v := res.Metrics["remote/Xeon-MP/sf_buf"]; v != 0 {
		t.Errorf("sf_buf remote invalidations = %v, want 0", v)
	}
	if v := res.Metrics["local/Xeon-MP/original"]; v == 0 {
		t.Error("original kernel should issue local invalidations")
	}
	if v := res.Metrics["remote/Xeon-MP/original"]; v == 0 {
		t.Error("original kernel should issue remote invalidations")
	}
}

func TestFig4PrivateSharedEquivalentWhenCached(t *testing.T) {
	res, err := runDDBandwidth(tinyOptions(), 128<<20, "fig4")
	if err != nil {
		t.Fatal(err)
	}
	// Disk fits the cache: private and shared must perform identically
	// (the paper's observation), and both beat the original.
	p := res.Metrics["private_mbps/Xeon-MP"]
	s := res.Metrics["shared_mbps/Xeon-MP"]
	o := res.Metrics["original_mbps/Xeon-MP"]
	if rel := (p - s) / p; rel > 0.02 || rel < -0.02 {
		t.Errorf("private %.0f vs shared %.0f MB/s: should be equivalent", p, s)
	}
	if p <= o {
		t.Errorf("sf_buf (%.0f) should beat original (%.0f)", p, o)
	}
}

func TestFig7PrivateEliminatesRemotes(t *testing.T) {
	res, err := runDDInvalidations(tinyOptions(), 512<<20, "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["remote/Xeon-MP/sf_buf: private"]; v != 0 {
		t.Errorf("private mappings issued %v remote invalidations, want 0", v)
	}
	if v := res.Metrics["remote/Xeon-MP/sf_buf: shared"]; v == 0 {
		t.Error("shared mappings under misses must issue remote invalidations")
	}
	// Both sf_buf configs still pay local invalidations on misses.
	if v := res.Metrics["local/Xeon-MP/sf_buf: private"]; v == 0 {
		t.Error("cache misses must cost local invalidations")
	}
}

func TestFig8PostMarkShape(t *testing.T) {
	res, err := RunFig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range tinyOptions().Platforms {
		if imp := res.Metrics["improvement_pct/"+plat.Name]; imp <= 0 {
			t.Errorf("%s: sf_buf did not win PostMark (%.1f%%)", plat.Name, imp)
		}
		if tps := res.Metrics["sfbuf_tps/"+plat.Name]; tps <= 0 {
			t.Errorf("%s: zero TPS", plat.Name)
		}
	}
}

func TestFig11LargeMTUGainsExceedSmall(t *testing.T) {
	o := tinyOptions()
	large, err := runNetperfBandwidth(o, 16<<10, "fig11")
	if err != nil {
		t.Fatal(err)
	}
	small, err := runNetperfBandwidth(o, 1500, "fig12")
	if err != nil {
		t.Fatal(err)
	}
	// "the performance improvement is higher when using the sf_buf
	// interface under this scenario [large MTU]"
	for _, plat := range o.Platforms {
		l := large.Metrics["improvement_pct/"+plat.Name]
		s := small.Metrics["improvement_pct/"+plat.Name]
		if l <= s {
			t.Errorf("%s: large MTU gain (%.1f%%) should exceed small (%.1f%%)", plat.Name, l, s)
		}
	}
}

func TestFig19HitRateDropsWithSmallCache(t *testing.T) {
	o := Options{Scale: 0.004}
	res, err := RunFig19(o)
	if err != nil {
		t.Fatal(err)
	}
	big := res.Metrics["hitrate_on/64K cache entries"]
	small := res.Metrics["hitrate_on/6K cache entries"]
	if big <= small {
		t.Errorf("hit rates: big cache %.2f <= small cache %.2f", big, small)
	}
	if small < 0.3 {
		t.Errorf("small-cache hit rate %.2f implausibly low (Zipf locality should help)", small)
	}
}

func TestFig20AccessedBitEffect(t *testing.T) {
	o := Options{Scale: 0.004}
	res, err := RunFig20(o)
	if err != nil {
		t.Fatal(err)
	}
	// With the small cache, disabling checksum offload must increase
	// invalidations: touched pages defeat the accessed-bit optimization.
	on := res.Metrics["local/6K cache entries/offload=on"]
	off := res.Metrics["local/6K cache entries/offload=off"]
	if off <= on {
		t.Errorf("offload off (%v locals) should exceed on (%v)", off, on)
	}
}

func TestScaleShardedBeatsGlobalOnShootdowns(t *testing.T) {
	res, err := RunScale(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sharded := res.Metrics["remote_per_kop/sf_buf sharded"]
	global := res.Metrics["remote_per_kop/sf_buf global-lock"]
	orig := res.Metrics["remote_per_kop/original"]
	if global <= 0 || orig <= 0 {
		t.Fatalf("churn must make the global cache (%v) and original kernel (%v) shoot down", global, orig)
	}
	// Batching must coalesce teardown rounds by a wide margin: at least
	// 4x fewer IPI rounds per op than the per-miss global design.
	if sharded*4 > global {
		t.Fatalf("sharded remote rounds/1k ops = %v, want <= 1/4 of global %v", sharded, global)
	}
	if ipiS, ipiG := res.Metrics["ipis_per_kop/sf_buf sharded"], res.Metrics["ipis_per_kop/sf_buf global-lock"]; ipiS >= ipiG {
		t.Fatalf("sharded IPIs/1k ops = %v, want below global %v", ipiS, ipiG)
	}
	if co := res.Metrics["coalesce/sf_buf sharded"]; co < 2 {
		t.Fatalf("coalescing factor = %v, want >= 2 invalidations per flush", co)
	}
}

// TestScaleBatchRowsAmortizeLocks: the vectored batch rows must not
// regress shootdown behaviour against single-page churn.  The 2x lock
// economy of the vectored path is pinned on the same page sequence by
// the sfbuf package's TestVectoredLockAndShootdownEconomy; the two scale
// rows churn different sequences, so their lock ratio is not asserted.
func TestScaleBatchRowsAmortizeLocks(t *testing.T) {
	res, err := RunScale(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Metrics["remote_per_kop/sf_buf sharded batch"]
	s := res.Metrics["remote_per_kop/sf_buf sharded"]
	if r <= 0 || s <= 0 {
		t.Fatalf("shootdown metrics missing: batch %v, single %v", r, s)
	}
	if r > s*1.1 {
		t.Fatalf("batch remote rounds/1k = %v, want <= 1.1x single-page %v", r, s)
	}
}

// TestScaleDeterminism: the churn rows are driven round-robin from one
// goroutine, so two runs must agree on every metric and every cell.
func TestScaleDeterminism(t *testing.T) {
	assertReplayable(t, func() (*Result, error) { return RunScale(Options{Scale: 0.02}) })
}

// assertReplayable runs an experiment twice and fails on any metric or
// rendered line that differs between the runs.
func assertReplayable(t *testing.T, run func() (*Result, error)) {
	t.Helper()
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(a.Metrics, b.Metrics) {
		t.Errorf("metrics not deterministic:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if ra, rb := a.Render(), b.Render(); ra != rb {
		t.Errorf("rendered table not deterministic:\n%s", lineDiff(ra, rb))
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{
		ID:      "figX",
		Title:   "test table",
		Columns: []string{"A", "BBBB", "C", "D"},
		Notes:   []string{"a note"},
	}
	r.AddRow(label("1"), count(uint64(2)), num(0.5, "%.2f"), improvement(3, 2).as("imp/1"))
	r.AddRow(label("333"), count(4).as("n/333"), auto(1234.5), improvement(3, 0).as("imp/333"))
	r.AddRow(label("f"), num(0.8125, percentVerb).as("hit/f"), Cell{Text: "n/a", Value: 0.25}.as("hit/g"), auto(5))
	want := `figX — test table
A    BBBB   C     D   
-----------------------
1    2      0.50  +50%
333  4      1234  n/a 
f    81.2%  n/a   5.00
note: a note
`
	if got := r.Render(); got != want {
		t.Errorf("render:\n%q\nwant\n%q", got, want)
	}
	// Keyed cells are published as their value, whatever they show; an
	// improvement over a zero baseline publishes 0; unkeyed cells
	// publish nothing.
	wantMetrics := map[string]float64{"imp/1": 50, "n/333": 4, "imp/333": 0, "hit/f": 0.8125, "hit/g": 0.25}
	if !maps.Equal(r.Metrics, wantMetrics) {
		t.Errorf("metrics = %v, want %v", r.Metrics, wantMetrics)
	}
}

func TestScalingHelpers(t *testing.T) {
	o := Options{Scale: 0.1}
	if got := o.scaleInt(1000, 1); got != 100 {
		t.Fatalf("scaleInt = %d", got)
	}
	if got := o.scaleInt(1000, 500); got != 500 {
		t.Fatalf("floor not applied: %d", got)
	}
	if got := o.scaleInt64(1<<30, 1); got != 1<<30/10 {
		t.Fatalf("scaleInt64 = %d", got)
	}
	zero := Options{}
	if got := zero.scaleInt(42, 1); got != 42 {
		t.Fatalf("zero scale should mean 1.0, got %d", got)
	}
}
