package experiments

import (
	"fmt"
	"testing"
)

// TestNUMAEconomy is the socket-homing acceptance criterion (the numa
// experiment's gate; -v logs the numbers): on 2- and 4-socket contended
// churn over socket-local frames, the homed configuration must pay at
// most 1/4 the remote lock acquisitions per op and at most 1/2 the
// remote IPIs per op of the hash-striped baseline, at simulated cycles
// per op no worse.  Remote costs are what the asymmetric machine model
// charges for crossing the package interconnect; the striped layout
// scatters them round-robin, the homed layout is supposed to make them
// vanish.
func TestNUMAEconomy(t *testing.T) {
	res, err := RunNUMA(Options{Scale: 0.25, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, sockets := range []int{2, 4} {
		homed := fmt.Sprintf("homed %d-socket", sockets)
		striped := fmt.Sprintf("striped %d-socket", sockets)
		hLocks := res.Metrics["remote_locks_per_op/"+homed]
		sLocks := res.Metrics["remote_locks_per_op/"+striped]
		hIPIs := res.Metrics["remote_ipis_per_op/"+homed]
		sIPIs := res.Metrics["remote_ipis_per_op/"+striped]
		hCyc := res.Metrics["cyc_per_op/"+homed]
		sCyc := res.Metrics["cyc_per_op/"+striped]
		if sLocks == 0 || sCyc == 0 {
			t.Fatalf("%d sockets: missing striped metrics", sockets)
		}
		t.Logf("%d sockets: rlocks/op %.4f vs %.4f, rIPIs/op %.4f vs %.4f, cyc/op %.1f vs %.1f",
			sockets, hLocks, sLocks, hIPIs, sIPIs, hCyc, sCyc)
		if hLocks > sLocks/4 {
			t.Errorf("%d sockets: homed remote locks/op = %.4f, want <= 1/4 of striped %.4f",
				sockets, hLocks, sLocks)
		}
		if hIPIs > sIPIs/2 {
			t.Errorf("%d sockets: homed remote IPIs/op = %.4f, want <= 1/2 of striped %.4f",
				sockets, hIPIs, sIPIs)
		}
		if hCyc > sCyc {
			t.Errorf("%d sockets: homed cyc/op = %.1f, want no worse than striped %.1f",
				sockets, hCyc, sCyc)
		}
	}
}

// TestNUMADeterminism: the churn's hot phase is hit-dominated and every
// CPU touches only its own working set, so two runs of the experiment
// must produce identical economies — the criterion above cannot flake.
func TestNUMADeterminism(t *testing.T) {
	run := func() map[string]float64 {
		res, err := RunNUMA(Options{Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(), run()
	for _, key := range []string{
		"remote_locks_per_op/homed 2-socket", "remote_locks_per_op/striped 4-socket",
		"remote_ipis_per_op/striped 2-socket", "cyc_per_op/homed 4-socket",
	} {
		if a[key] != b[key] {
			t.Errorf("%s not deterministic: %v vs %v", key, a[key], b[key])
		}
	}
}
