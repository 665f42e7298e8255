package arch

import "testing"

func TestEvaluationPlatforms(t *testing.T) {
	plats := Evaluation()
	if len(plats) != 5 {
		t.Fatalf("platforms = %d, want 5", len(plats))
	}
	wantOrder := []string{"Xeon-UP", "Xeon-HTT", "Xeon-MP", "Xeon-MP-HTT", "Opteron-MP"}
	for i, p := range plats {
		if p.Name != wantOrder[i] {
			t.Errorf("platform %d = %s, want %s", i, p.Name, wantOrder[i])
		}
	}
}

func TestTopologyConsistency(t *testing.T) {
	for _, p := range Evaluation() {
		seen := map[int]bool{}
		count := 0
		for _, core := range p.Cores {
			for _, id := range core {
				if seen[id] {
					t.Errorf("%s: cpu %d in two cores", p.Name, id)
				}
				seen[id] = true
				count++
			}
		}
		if count != p.NumCPUs {
			t.Errorf("%s: cores list %d cpus, NumCPUs %d", p.Name, count, p.NumCPUs)
		}
		for id := 0; id < p.NumCPUs; id++ {
			if !seen[id] {
				t.Errorf("%s: cpu %d missing from cores", p.Name, id)
			}
		}
	}
}

func TestSection3CostSeeding(t *testing.T) {
	// The cost models must carry the paper's measured numbers verbatim.
	x := XeonHTT()
	if x.Cost.LocalInvCachedPTE != 500 || x.Cost.LocalInvUncachedPTE != 1000 {
		t.Errorf("Xeon local costs = %d/%d, want 500/1000",
			x.Cost.LocalInvCachedPTE, x.Cost.LocalInvUncachedPTE)
	}
	if x.RemoteShootdownWait != 4000 {
		t.Errorf("Xeon-HTT shootdown = %d, want 4000", x.RemoteShootdownWait)
	}
	if XeonMPHTT().RemoteShootdownWait != 13500 {
		t.Errorf("Xeon-MP-HTT shootdown = %d, want 13500", XeonMPHTT().RemoteShootdownWait)
	}
	o := OpteronMP()
	if o.Cost.LocalInvCachedPTE != 95 || o.Cost.LocalInvUncachedPTE != 320 {
		t.Errorf("Opteron local costs = %d/%d, want 95/320",
			o.Cost.LocalInvCachedPTE, o.Cost.LocalInvUncachedPTE)
	}
	if o.RemoteShootdownWait != 2030 {
		t.Errorf("Opteron shootdown = %d, want 2030", o.RemoteShootdownWait)
	}
}

func TestKernelKinds(t *testing.T) {
	if !XeonMP().MPKernel {
		t.Error("Xeon-MP must run an MP kernel")
	}
	if XeonUP().MPKernel {
		t.Error("Xeon-UP must run a UP kernel")
	}
	if XeonUP().RemoteShootdownWait != 0 {
		t.Error("UP platform cannot have a shootdown wait")
	}
}

func TestArchStrings(t *testing.T) {
	cases := map[ID]string{I386: "i386", AMD64: "amd64", ID(2): "unknown", ID(99): "unknown"}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", id, got, want)
		}
	}
}

func TestAllCPUSet(t *testing.T) {
	if got := XeonMPHTT().AllCPUSet(); got != 0xF {
		t.Errorf("AllCPUSet = %#x, want 0xF", got)
	}
	if got := XeonUP().AllCPUSet(); got != 0x1 {
		t.Errorf("AllCPUSet = %#x, want 0x1", got)
	}
}

func TestFrequencies(t *testing.T) {
	if XeonMP().FreqGHz != 2.4 {
		t.Error("Xeon runs at 2.4 GHz")
	}
	if OpteronMP().FreqGHz != 1.6 {
		t.Error("Opteron 242 runs at 1.6 GHz")
	}
}
