package experiments

import (
	"fmt"

	"sfbuf/internal/arch"
	"sfbuf/internal/cycles"
	"sfbuf/internal/smp"
)

func init() { register("sec3", RunSec3) }

// RunSec3 reproduces the Section 3 microbenchmark: the cost of local and
// remote TLB invalidations, with the page-table entry resident in the data
// cache and not.  The paper modifies the kernel to add a custom system
// call that invalidates a mapping 100,000 times; we do exactly that
// against the simulated machine, so this experiment primarily validates
// that the cost model reproduces the numbers it was seeded with — and
// documents them next to the paper's.
func RunSec3(o Options) (*Result, error) {
	iters := o.scaleInt(100000, 1000)
	res := &Result{
		ID:    "sec3",
		Title: "Cost of TLB invalidations (cycles per operation)",
		Columns: []string{
			"Machine", "Operation", "Measured", "Paper",
		},
		Notes: []string{
			fmt.Sprintf("%d iterations per measurement, as in the paper's custom syscall", iters),
			"remote costs are the initiating CPU's wait time, per Section 3",
		},
	}

	type expectation struct {
		plat        arch.Platform
		localCached cycles.Cycles
		localUncach cycles.Cycles
		remote      cycles.Cycles
		remoteName  string
	}
	cases := []expectation{
		{arch.XeonHTT(), 500, 1000, 4000, "remote (1 phys, 2 virt CPUs)"},
		{arch.XeonMPHTT(), 500, 1000, 13500, "remote (2 phys, 4 virt CPUs)"},
		{arch.OpteronMP(), 95, 320, 2030, "remote (2 phys CPUs)"},
	}

	for _, c := range cases {
		m := smp.NewMachine(c.plat, 64, false)
		ctx := m.Ctx(0)

		// Local, PTE cached: hammer one virtual page so its PTE line
		// stays hot.
		vpn := uint64(0xC0000)
		ctx.InvalidateLocal(vpn) // prime the PTE line
		m.ResetCounters()
		for i := 0; i < iters; i++ {
			ctx.InvalidateLocal(vpn)
		}
		cached := float64(m.CPU(0).Cycles()) / float64(iters)
		res.AddRow(label(c.plat.Name), label("local invlpg, PTE cached"),
			auto(cached).as("local_cached/"+c.plat.Name), label(fmt.Sprintf("~%d", c.localCached)))

		// Local, PTE uncached: sweep far more PTE lines than the
		// modeled cache holds.
		m.ResetCounters()
		// One VPN per 8-PTE cache line, cycling through 4x more lines
		// than the modeled PTE cache holds.
		span := uint64(c.plat.PTECacheLines) * 4
		for i := 0; i < iters; i++ {
			ctx.InvalidateLocal(vpn + (uint64(i)%span)*8)
		}
		uncached := float64(m.CPU(0).Cycles()) / float64(iters)
		res.AddRow(label(c.plat.Name), label("local invlpg, PTE uncached"),
			auto(uncached).as("local_uncached/"+c.plat.Name), label(fmt.Sprintf("~%d", c.localUncach)))

		// Remote: the initiating CPU's wait for the shootdown.
		m.ResetCounters()
		for i := 0; i < iters; i++ {
			ctx.Shootdown(m.AllCPUs(), vpn)
		}
		remote := float64(m.CPU(0).Cycles()) / float64(iters)
		res.AddRow(label(c.plat.Name), label(c.remoteName),
			auto(remote).as("remote/"+c.plat.Name), label(fmt.Sprintf("~%d", c.remote)))
	}
	return res, nil
}
