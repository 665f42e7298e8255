package experiments

import (
	"fmt"
	"testing"
)

// TestReclaimEconomy is the background-daemon acceptance criterion, run in
// CI (make bench-reclaim): the p99 AND p999 of first-alloc-after-idle
// latency with the daemon must be at most a quarter of the on-demand
// baseline's — the tail, not the mean, is what a serving workload pays on
// every traffic lull — while steady-state cycles per op stay within 5%,
// so the daemon's refills genuinely ride idle time.
func TestReclaimEconomy(t *testing.T) {
	res, err := RunReclaim(Options{Scale: 0.25, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []int{1, ScaleBatch} {
		for _, pct := range []string{"p99", "p999"} {
			d := res.Metrics[fmt.Sprintf("%s/daemon/%d", pct, probe)]
			o := res.Metrics[fmt.Sprintf("%s/on-demand/%d", pct, probe)]
			if o == 0 {
				t.Fatalf("probe %d: missing on-demand %s metric", probe, pct)
			}
			t.Logf("probe %d %s: daemon %.0f vs on-demand %.0f cycles (%.1fx)",
				probe, pct, d, o, o/d)
			if d > o/4 {
				t.Errorf("probe %d: %s with daemon = %.0f cycles, want <= 1/4 of on-demand %.0f",
					probe, pct, d, o)
			}
		}
	}
	dSteady := res.Metrics["steady_cyc_op/daemon"]
	oSteady := res.Metrics["steady_cyc_op/on-demand"]
	if dSteady == 0 || oSteady == 0 {
		t.Fatal("missing steady-state metrics")
	}
	ratio := dSteady / oSteady
	t.Logf("steady state: daemon %.1f vs on-demand %.1f cyc/op (ratio %.3f)", dSteady, oSteady, ratio)
	if ratio > 1.05 || ratio < 0.95 {
		t.Errorf("steady-state cycles/op changed by more than 5%%: daemon %.1f vs on-demand %.1f",
			dSteady, oSteady)
	}
}

// TestReclaimDeterminism: the idle-spike trials are single-CPU and the
// steady-state churn is driven round-robin, so two runs must agree on
// every metric and every cell and the criterion above cannot flake.
func TestReclaimDeterminism(t *testing.T) {
	assertReplayable(t, func() (*Result, error) { return RunReclaim(Options{Scale: 0.05}) })
}
