package experiments

import (
	"fmt"

	"sfbuf/internal/kernel"
	"sfbuf/internal/smp"
	"sfbuf/internal/vm"
)

// drive is the one churn loop behind every Churn* driver: a single
// goroutine runs rounds rounds, and each round calls op once on every
// virtual CPU in id order (round loop outermost, CPU loop innermost).
// Shootdowns are delivered synchronously, so a CPU's context need not be
// running to take one, and the interleaving — hence every simulated
// number — is a function of the inputs alone, never of the Go scheduler.
//
// drive stops at the first op error and returns it.  After the last round
// it checks the mapper's ledger: contention must never corrupt a mapping,
// so every Alloc must have met its Free.
//
// Exhaustion cannot hang the loop: only one extent is ever in flight, and
// every caller sizes its extents well inside the mapping cache (the scale
// experiment caps its batch at entries/(2·ncpu)), so an Alloc never has to
// sleep waiting for another CPU's Free and no NoWait arm is needed.
func drive(k *kernel.Kernel, rounds int, op func(ctx *smp.Context, cpu, i int) error) error {
	ctxs := make([]*smp.Context, k.M.NumCPUs())
	for cpu := range ctxs {
		ctxs[cpu] = k.Ctx(cpu)
	}
	for i := 0; i < rounds; i++ {
		for cpu, ctx := range ctxs {
			if err := op(ctx, cpu, i); err != nil {
				return err
			}
		}
	}
	if st := k.Map.Stats(); st.Allocs != st.Frees {
		return fmt.Errorf("leaked references: allocs %d != frees %d", st.Allocs, st.Frees)
	}
	return nil
}

// touchExtent maps extent on ctx — one AllocRun window when useRun, one
// AllocBatch otherwise — reads every page through the honest MMU, and
// unmaps it.  A contiguous window is swept with ONE ranged translation
// (kcopy-style: one page-table walk per contiguous PTE run); a scattered
// window or a batch is translated page by page, exactly what those
// mappings cost.  *got is the ranged sweep's reusable scratch.
func touchExtent(k *kernel.Kernel, ctx *smp.Context, extent []*vm.Page, useRun bool, got *[]*vm.Page) error {
	if useRun {
		r, err := k.Map.AllocRun(ctx, extent, 0)
		if err != nil {
			return err
		}
		defer k.Map.FreeRun(ctx, r)
		if r.Contiguous() {
			*got, err = k.Pmap.TranslateRun(ctx, r.Base(), r.Len(), false, (*got)[:0])
			return err
		}
		for j := 0; j < r.Len(); j++ {
			if _, err := k.Pmap.Translate(ctx, r.KVA(j), false); err != nil {
				return err
			}
		}
		return nil
	}
	bufs, err := k.Map.AllocBatch(ctx, extent, 0)
	if err != nil {
		return err
	}
	defer k.Map.FreeBatch(ctx, bufs)
	for _, b := range bufs {
		if _, err := k.Pmap.Translate(ctx, b.KVA(), false); err != nil {
			return err
		}
	}
	return nil
}
