package experiments

import (
	"sync"
	"testing"

	"sfbuf/internal/vm"
)

// adaptiveRounds is the per-CPU extent count the economy test drives —
// long enough that the adaptive policy's warmup epoch (it starts in run
// mode) amortizes below the 10% tolerance.
const adaptiveRounds = 400

// TestAdaptivePolicyEconomy enforces the PR's acceptance criterion on
// the canonical workloads: the adaptive per-consumer policy must land
// within 10% of the BEST static Contig choice on both the streaming and
// the reuse-heavy churn workload, and beat the WORST static choice by at
// least 2x on each — measured in simulated cycles per page, the repo's
// performance currency.
func TestAdaptivePolicyEconomy(t *testing.T) {
	drive := func(workload, policy string) float64 {
		k, err := BootAdaptive()
		if err != nil {
			t.Fatal(err)
		}
		done, err := ChurnAdaptiveWorkload(k, workload, policy, adaptiveRounds)
		if err != nil {
			t.Fatalf("%s/%s: %v", workload, policy, err)
		}
		return float64(k.M.TotalCycles()) / float64(done)
	}
	for _, workload := range []string{"stream", "churn"} {
		run := drive(workload, "run")
		batch := drive(workload, "batch")
		adaptive := drive(workload, "adaptive")
		best, worst := run, batch
		if batch < best {
			best, worst = batch, run
		}
		t.Logf("%s: run %.0f, batch %.0f, adaptive %.0f simcycles/page", workload, run, batch, adaptive)
		if adaptive > best*1.10 {
			t.Errorf("%s: adaptive %.0f simcycles/page, want within 10%% of best static %.0f",
				workload, adaptive, best)
		}
		if worst < 2*adaptive {
			t.Errorf("%s: worst static %.0f simcycles/page is not >= 2x adaptive %.0f",
				workload, worst, adaptive)
		}
	}
}

// TestAdaptivePolicyDecisions pins WHY the economy holds: on the
// streaming workload the consumer must stay on the run path and feed on
// window revives; on the churn workload it must flip to the batch path
// within its first epochs and stay there (hysteresis: a handful of
// flips at most, not one per epoch).  The flip count is a property of
// the extent order the EWMAs see, which the round-robin driver fixes.
func TestAdaptivePolicyDecisions(t *testing.T) {
	k, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChurnAdaptiveWorkload(k, "stream", "adaptive", adaptiveRounds); err != nil {
		t.Fatal(err)
	}
	stats := k.PolicyStats()
	if len(stats) != 1 || stats[0].Name != "adaptive-stream" {
		t.Fatalf("policy stats = %+v, want the one stream consumer", stats)
	}
	ps := stats[0]
	if !ps.Adaptive {
		t.Fatal("Contig Auto on the sharded engine must resolve to the adaptive policy")
	}
	if ps.BatchDecisions > ps.RunDecisions/10 {
		t.Errorf("stream consumer chose batch %d of %d times; must stay on the run path",
			ps.BatchDecisions, ps.RunDecisions+ps.BatchDecisions)
	}
	if st := k.Map.Stats(); st.RunRevives == 0 {
		t.Error("streaming extents never revived a parked window")
	}

	k2, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChurnAdaptiveWorkload(k2, "churn", "adaptive", adaptiveRounds); err != nil {
		t.Fatal(err)
	}
	ps = k2.PolicyStats()[0]
	if ps.RunDecisions > ps.BatchDecisions/10 {
		t.Errorf("churn consumer chose runs %d of %d times; must flip to the batch path early",
			ps.RunDecisions, ps.RunDecisions+ps.BatchDecisions)
	}
	if ps.Flips == 0 {
		t.Error("churn consumer never flipped")
	}
	if ps.Flips > 4 {
		t.Errorf("churn consumer flipped %d times on a stable workload; hysteresis is broken", ps.Flips)
	}
}

// TestAdaptiveFlippingConcurrentStress is the -race stress for the
// adaptive policy: goroutines drive streaming and churning extents
// through ONE shared consumer handle concurrently — a mixed workload
// that keeps the flip score mid-range — while another goroutine
// snapshots policy state, and the mapper ledger must still balance.
// Hysteresis must keep flips rare even under the mix.
func TestAdaptiveFlippingConcurrentStress(t *testing.T) {
	k, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	streamPages, err := k.M.Phys.AllocN(AdaptiveStreamExtents * AdaptiveChurnLen)
	if err != nil {
		t.Fatal(err)
	}
	churnPages, err := k.M.Phys.AllocN(AdaptiveChurnPages)
	if err != nil {
		t.Fatal(err)
	}
	cons := k.Consumer("mixed")
	ncpu := k.M.NumCPUs()
	const rounds = 250
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = k.PolicyStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < ncpu; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.Ctx(w)
			runLen := AdaptiveChurnLen
			for r := 0; r < rounds; r++ {
				var extent []*vm.Page
				if w%2 == 0 {
					e := (r + w) % AdaptiveStreamExtents
					extent = streamPages[e*runLen : (e+1)*runLen]
				} else {
					span := len(churnPages) - runLen + 1
					extent = churnPages[((r*ncpu+w)*7)%span : ((r*ncpu+w)*7)%span+runLen]
				}
				if cons.UseRuns(ctx, extent) {
					rn, err := k.Map.AllocRun(ctx, extent, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := k.Pmap.TranslateRun(ctx, rn.Base(), rn.Len(), false, nil); err != nil {
						t.Error(err)
						return
					}
					k.Map.FreeRun(ctx, rn)
				} else {
					bufs, err := k.Map.AllocBatch(ctx, extent, 0)
					if err != nil {
						t.Error(err)
						return
					}
					k.Map.FreeBatch(ctx, bufs)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after the mixed stress", st.Allocs, st.Frees)
	}
	ps := cons.PolicyStats()
	if ps.Observations == 0 {
		t.Fatal("consumer observed nothing")
	}
	if ps.Flips > ps.Observations/32 {
		t.Errorf("flips = %d over %d observations; hysteresis must bound flipping",
			ps.Flips, ps.Observations)
	}
}
