package experiments

import (
	"errors"
	"strings"
	"testing"

	"sfbuf/internal/smp"
)

// TestDriveOrderAndStop: drive calls op round by round, CPUs in id order
// within a round, and an op error on round r, CPU c is returned with no
// further op calls.
func TestDriveOrderAndStop(t *testing.T) {
	k, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	ncpu := k.M.NumCPUs()
	const stopRound, stopCPU = 2, 1
	boom := errors.New("boom")
	var calls [][2]int
	err = drive(k, 5, func(ctx *smp.Context, cpu, i int) error {
		if ctx.CPUID() != cpu {
			t.Errorf("op for CPU %d ran on context of CPU %d", cpu, ctx.CPUID())
		}
		calls = append(calls, [2]int{i, cpu})
		if i == stopRound && cpu == stopCPU {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("drive returned %v, want the op's error", err)
	}
	if want := stopRound*ncpu + stopCPU + 1; len(calls) != want {
		t.Fatalf("op ran %d times, want %d (stop at round %d, CPU %d)", len(calls), want, stopRound, stopCPU)
	}
	for n, c := range calls {
		if c != [2]int{n / ncpu, n % ncpu} {
			t.Fatalf("call %d was (round %d, CPU %d), want (round %d, CPU %d)", n, c[0], c[1], n/ncpu, n%ncpu)
		}
	}
}

// TestDriveLedger: a Buf an op leaves mapped makes drive fail the
// Allocs == Frees ledger check.
func TestDriveLedger(t *testing.T) {
	k, err := BootAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	pages, err := k.M.Phys.AllocN(1)
	if err != nil {
		t.Fatal(err)
	}
	err = drive(k, 1, func(ctx *smp.Context, cpu, i int) error {
		if cpu == 0 {
			_, err := k.Map.Alloc(ctx, pages[0], 0) // leaked on purpose
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "leaked references") {
		t.Fatalf("drive returned %v, want the ledger error", err)
	}
}
