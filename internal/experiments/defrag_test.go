package experiments

import (
	"testing"
)

// TestDefragEconomy is the defragmentation acceptance criterion (the
// defrag experiment's gate; -v logs the numbers): on the shaped
// ~70%-occupancy pool whose steady churn defeats the plain buddy
// allocator — the no-defrag arm must sustain ZERO contiguous extents and
// zero promotions — the migration arm must serve at least half its
// superpage extents physically contiguous with a non-zero promotion
// rate, at steady-state simulated cycles per operation within 10% of the
// no-defrag arm.  RunDefrag itself enforces the migration byte oracle
// and the free-list audit on both arms, so a corrupting evacuation fails
// the run before any criterion is compared.
func TestDefragEconomy(t *testing.T) {
	res, err := RunDefrag(Options{Scale: 0.25, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	onContig := res.Metrics["contig_frac/defrag on"]
	offContig := res.Metrics["contig_frac/defrag off"]
	onPromo := res.Metrics["promo_per_sec/defrag on"]
	offPromo := res.Metrics["promo_per_sec/defrag off"]
	onCyc := res.Metrics["cyc_per_op/defrag on"]
	offCyc := res.Metrics["cyc_per_op/defrag off"]
	onMoved := res.Metrics["pages_moved/defrag on"]
	t.Logf("contig%% %.2f vs %.2f, promo/s %.0f vs %.0f, cyc/op %.1f vs %.1f, moved %.0f",
		onContig, offContig, onPromo, offPromo, onCyc, offCyc, onMoved)
	if offContig != 0 {
		t.Errorf("no-defrag arm served %.2f contiguous extents; the shaped pool must starve it", offContig)
	}
	if offPromo != 0 {
		t.Errorf("no-defrag arm promoted (%.2f/s) without contiguity", offPromo)
	}
	if onContig < 0.5 {
		t.Errorf("defrag arm contig fraction = %.2f, want >= 0.5", onContig)
	}
	if onPromo <= 0 {
		t.Errorf("defrag arm promotions/s = %.2f, want > 0", onPromo)
	}
	if onMoved <= 0 {
		t.Errorf("defrag arm moved %.0f pages; the recovery must come from migration", onMoved)
	}
	if offCyc == 0 {
		t.Fatal("missing baseline cycle metric")
	}
	if onCyc > offCyc*1.10 {
		t.Errorf("defrag arm cyc/op = %.1f, want within 10%% of no-defrag %.1f", onCyc, offCyc)
	}
}

// TestDefragDeterminism: the driver is sequential — churn, idle ticks,
// extents and migration passes all run from one goroutine in a fixed
// order — so two runs must produce identical economies and the criterion
// above cannot flake.
func TestDefragDeterminism(t *testing.T) {
	run := func() map[string]float64 {
		res, err := RunDefrag(Options{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(), run()
	for _, key := range []string{
		"contig_frac/defrag on", "contig_frac/defrag off",
		"promo_per_sec/defrag on", "cyc_per_op/defrag on",
		"cyc_per_op/defrag off", "pages_moved/defrag on",
	} {
		if a[key] != b[key] {
			t.Errorf("%s not deterministic: %v vs %v", key, a[key], b[key])
		}
	}
}
