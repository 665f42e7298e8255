package experiments

import (
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/kernel"
)

// Canonical acceptance counts: enough accesses that the EWMAs, the
// keeper's rate estimates and the placement all reach steady state
// inside the warmup, and the measured window dwarfs any residual
// migration transient.
const (
	tierTestWarmup   = 800
	tierTestAccesses = 4000
)

// tierTestArms runs both arms of one workload.
func tierTestArms(t *testing.T, workload string) (hinted, oblivious *tierArm) {
	t.Helper()
	h, err := runTierArm(kernel.On, workload, tierTestWarmup, tierTestAccesses)
	if err != nil {
		t.Fatalf("hinted/%s: %v", workload, err)
	}
	o, err := runTierArm(kernel.Off, workload, tierTestWarmup, tierTestAccesses)
	if err != nil {
		t.Fatalf("oblivious/%s: %v", workload, err)
	}
	return h, o
}

// TestTierEconomy is the tiered-memory acceptance criterion.  On the
// zipfian extent-popularity workload — fast tier a quarter of the
// working set — consumer-hinted placement must serve a page in at most
// two thirds of the tier-oblivious cycles.  On the uniform adversarial
// workload, where no placement can win, the hinted arm must cost within
// 10% of the oblivious one: the hot-threshold and admission gates must
// keep the keeper from thrashing copies it cannot amortize.
func TestTierEconomy(t *testing.T) {
	h, o := tierTestArms(t, "zipf")
	t.Logf("zipf: hinted %.1f cyc/page (fast %.2f, %d promoted) vs oblivious %.1f (fast %.2f)",
		h.CycPerPage, tierFastFrac(h.Stats), h.Stats.PromotedPages,
		o.CycPerPage, tierFastFrac(o.Stats))
	if h.CycPerPage > o.CycPerPage*2/3 {
		t.Errorf("zipf: hinted %.1f cyc/page > 2/3 of oblivious %.1f", h.CycPerPage, o.CycPerPage)
	}
	if h.Stats.PromotedPages == 0 {
		t.Error("zipf: hinted arm promoted nothing")
	}
	if hf, of := tierFastFrac(h.Stats), tierFastFrac(o.Stats); hf <= of {
		t.Errorf("zipf: hinted fast-tier hit rate %.2f not above oblivious %.2f", hf, of)
	}

	h, o = tierTestArms(t, "uniform")
	t.Logf("uniform: hinted %.1f cyc/page (%d promoted) vs oblivious %.1f",
		h.CycPerPage, h.Stats.PromotedPages, o.CycPerPage)
	if h.CycPerPage > o.CycPerPage*1.10 {
		t.Errorf("uniform: hinted %.1f cyc/page > 110%% of oblivious %.1f — the keeper is thrashing",
			h.CycPerPage, o.CycPerPage)
	}
}

// TestTierDeterminism runs the hinted zipfian arm twice and demands
// identical cycle counts and migration totals: the keeper's victim
// choices (map iteration!) and the driver's access sequence must be
// fully deterministic, because the tier experiment publishes its numbers
// in the byte-compared figure output.
func TestTierDeterminism(t *testing.T) {
	a, err := runTierArm(kernel.On, "zipf", 400, 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTierArm(kernel.On, "zipf", 400, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if a.CycPerPage != b.CycPerPage {
		t.Errorf("cyc/page not deterministic: %v vs %v", a.CycPerPage, b.CycPerPage)
	}
	if a.Stats.PromotedPages != b.Stats.PromotedPages || a.Stats.DemotedPages != b.Stats.DemotedPages {
		t.Errorf("migration totals not deterministic: %d/%d vs %d/%d",
			a.Stats.PromotedPages, a.Stats.DemotedPages, b.Stats.PromotedPages, b.Stats.DemotedPages)
	}
	if a.Stats.SlowMemCycles != b.Stats.SlowMemCycles {
		t.Errorf("slow-tier surcharge not deterministic: %d vs %d",
			a.Stats.SlowMemCycles, b.Stats.SlowMemCycles)
	}
}

// TestTierSingleTierIdentical proves the default configuration really is
// untiered: a Tiers-less boot of the tier experiment's kernel reports
// Tiered=false, zero fast frames, and charges no slow-tier surcharge.
func TestTierSingleTierIdentical(t *testing.T) {
	k, err := kernel.Boot(kernel.Config{
		Platform:     arch.XeonMPHTT(),
		Mapper:       kernel.SFBuf,
		Cache:        kernel.CacheSharded,
		PhysPages:    TierPhysPages,
		Backed:       true,
		CacheEntries: 512,
		Reserv:       kernel.Off,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := k.TierStats(); st.Tiered {
		t.Fatalf("untiered boot reports Tiered: %+v", st)
	}
	if k.TierHintsEnabled() {
		t.Fatal("untiered boot has a tier keeper")
	}
	extents, _, err := allocTierExtents(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := churnTier(k, "zipf", extents, 500); err != nil {
		t.Fatal(err)
	}
	if sc := k.M.SnapshotCounters().SlowMemCycles; sc != 0 {
		t.Fatalf("untiered run charged %d slow-tier cycles", sc)
	}
}
