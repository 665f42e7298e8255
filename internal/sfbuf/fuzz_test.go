package sfbuf

// Native Go fuzz target for the vectored and contiguous-run paths of the
// sharded engine.  A byte string decodes into a trace of single, batched,
// and run operations over a deliberately tiny cache (constant reclaim and
// window-launder pressure), and the stale-mapping invariant is the
// oracle: every read through a live mapping's kernel virtual address,
// performed through the honest TLB model, must see the mapped frame's
// current bytes.  Allocation uses NoWait throughout — the trace runs on
// one goroutine, so a sleeping alloc would deadlock; a WouldBlock outcome
// is simply a no-op step.
//
// The seed corpus lives in testdata/fuzz/FuzzBatchOps; digits '0'-'7'
// conveniently decode to opcodes 0-7, so the seeds are readable op lists.

import (
	"errors"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

const (
	fuzzEntries = 12
	fuzzPages   = 36
)

func FuzzBatchOps(f *testing.F) {
	// Each opcode consumes two bytes: op = b[i]%8, arg = b[i+1].
	f.Add([]byte("0a0b1c4d5e2a3b"))                                // allocs, a batch, write, verify, frees
	f.Add([]byte("1a1b1c1d3a3b3c"))                                // batch churn beyond the cache size
	f.Add([]byte("0\x80" + "0\x81" + "4\xff" + "5\x00" + "2\x00")) // private flags, write/verify
	f.Add([]byte("1\xf0" + "1\xf1" + "1\xf2" + "1\xf3" + "1\xf4")) // NoWait exhaustion + rollback
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add([]byte("6a6b4c5d7a7b"))                                   // runs, write/verify through windows, frees
	f.Add([]byte("6\xf06\xf16\xf27\x007\x016\x337\x00"))            // run churn: window recycling + NoWait exhaustion
	f.Add([]byte("6a1b0c7a3a2a6d5e7b"))                             // runs, batches and singles interleaved
	f.Add([]byte("6a707a6a4a5a7a6a7a6b6a7a7a6a2a7a"))               // revive-heavy: free/re-alloc the same extent, with writes between lives
	f.Add([]byte("0a0q0b2a0c2b6e2c7a0d6f0e7a2d6a4b5c7a1f2e3a6b7a")) // fragmentation-heavy: interleaved single alloc/free churn punctuated by runs and batches
	f.Fuzz(func(t *testing.T, data []byte) {
		runBatchOpsTrace(t, data)
	})
}

// fuzzHandle mirrors diffHandle for the fuzz replay; run members carry no
// Buf, only their window address.
type fuzzHandle struct {
	b       *Buf
	kva     uint64
	page    int
	cpu     int
	private bool
}

// fuzzRun is one live contiguous run and its per-page handles.
type fuzzRun struct {
	r  *Run
	hs []fuzzHandle
}

func runBatchOpsTrace(t *testing.T, data []byte) {
	r := newShardedRig(t, arch.XeonMPHTT(), fuzzEntries,
		ShardedConfig{ReclaimBatch: 3, PerCPUFree: 2})
	var model [fuzzPages]byte
	vmPages := make([]*vm.Page, fuzzPages)
	for i := range vmPages {
		pg, err := r.m.Phys.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0] = byte(i)
		model[i] = byte(i)
		vmPages[i] = pg
	}
	ncpu := r.m.NumCPUs()

	var singles []fuzzHandle
	var batches [][]fuzzHandle
	var runs []fuzzRun
	// Allocs counts only pages successfully mapped — the unified ledger
	// rule this fuzz target originally forced by catching the asymmetry
	// between singles (which used to count failed NoWait attempts) and
	// batches (which never did).  Failed attempts of every kind count
	// only in WouldBlock; track them so that can be audited exactly.
	failedAllocs := uint64(0)
	live := func() int {
		n := len(singles)
		for _, b := range batches {
			n += len(b)
		}
		for _, fr := range runs {
			n += len(fr.hs)
		}
		return n
	}
	liveAt := func(pick int) *fuzzHandle {
		if pick < len(singles) {
			return &singles[pick]
		}
		pick -= len(singles)
		for bi := range batches {
			if pick < len(batches[bi]) {
				return &batches[bi][pick]
			}
			pick -= len(batches[bi])
		}
		for ri := range runs {
			if pick < len(runs[ri].hs) {
				return &runs[ri].hs[pick]
			}
			pick -= len(runs[ri].hs)
		}
		return nil
	}
	verify := func(h *fuzzHandle, cpu int) {
		if h.private {
			cpu = h.cpu
		}
		ctx := r.m.Ctx(cpu)
		got, err := r.pm.Translate(ctx, h.kva, false)
		if err != nil {
			t.Fatalf("translate page %d: %v", h.page, err)
		}
		if got.Data()[0] != model[h.page] {
			t.Fatalf("page %d reads %#x, want %#x — stale mapping dereferenced",
				h.page, got.Data()[0], model[h.page])
		}
	}

	for i := 0; i+1 < len(data); i += 2 {
		op, arg := int(data[i]%8), int(data[i+1])
		cpu := (arg >> 2) % ncpu
		switch op {
		case 0: // single alloc, NoWait
			flags := NoWait
			if arg&0x80 != 0 {
				flags |= Private
			}
			pi := arg % fuzzPages
			b, err := r.sf.Alloc(r.m.Ctx(cpu), vmPages[pi], flags)
			if errors.Is(err, ErrWouldBlock) {
				failedAllocs++
				continue
			}
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			h := fuzzHandle{b: b, kva: b.KVA(), page: pi, cpu: cpu, private: arg&0x80 != 0}
			singles = append(singles, h)
			verify(&h, cpu)
		case 1: // batch alloc, NoWait
			n := 1 + (arg>>4)%8
			start := arg % (fuzzPages - n)
			flags := NoWait
			if arg&0x01 != 0 {
				flags |= Private
			}
			run := vmPages[start : start+n]
			bufs, err := r.sf.AllocBatch(r.m.Ctx(cpu), run, flags)
			if errors.Is(err, ErrWouldBlock) || errors.Is(err, ErrBatchTooLarge) {
				failedAllocs++
				continue
			}
			if err != nil {
				t.Fatalf("allocBatch: %v", err)
			}
			hs := make([]fuzzHandle, n)
			for j, b := range bufs {
				if b.Page() != run[j] {
					t.Fatalf("batch buf %d maps wrong page", j)
				}
				hs[j] = fuzzHandle{b: b, kva: b.KVA(), page: start + j, cpu: cpu, private: arg&0x01 != 0}
				verify(&hs[j], cpu)
			}
			batches = append(batches, hs)
		case 2: // free one single
			if len(singles) == 0 {
				continue
			}
			pick := arg % len(singles)
			h := singles[pick]
			verify(&h, h.cpu)
			r.sf.Free(r.m.Ctx(h.cpu), h.b)
			singles = append(singles[:pick], singles[pick+1:]...)
		case 3: // free one batch
			if len(batches) == 0 {
				continue
			}
			pick := arg % len(batches)
			hs := batches[pick]
			bufs := make([]*Buf, len(hs))
			for j := range hs {
				verify(&hs[j], hs[j].cpu)
				bufs[j] = hs[j].b
			}
			r.sf.FreeBatch(r.m.Ctx(hs[0].cpu), bufs)
			batches = append(batches[:pick], batches[pick+1:]...)
		case 4: // write through a live mapping
			if live() == 0 {
				continue
			}
			h := liveAt(arg % live())
			wcpu := cpu
			if h.private {
				wcpu = h.cpu
			}
			ctx := r.m.Ctx(wcpu)
			got, err := r.pm.Translate(ctx, h.kva, true)
			if err != nil {
				t.Fatalf("write translate: %v", err)
			}
			v := byte(arg) | 1
			got.Data()[0] = v
			model[h.page] = v
			verify(h, wcpu)
		case 5: // verify a live mapping
			if live() == 0 {
				continue
			}
			verify(liveAt(arg%live()), cpu)
		case 6: // contiguous run alloc, NoWait
			n := 1 + (arg>>4)%8
			start := arg % (fuzzPages - n)
			flags := NoWait
			if arg&0x01 != 0 {
				flags |= Private
			}
			rn, err := r.sf.AllocRun(r.m.Ctx(cpu), vmPages[start:start+n], flags)
			if errors.Is(err, ErrWouldBlock) || errors.Is(err, ErrBatchTooLarge) {
				failedAllocs++
				continue
			}
			if err != nil {
				t.Fatalf("allocRun: %v", err)
			}
			if !rn.Contiguous() {
				t.Fatal("sharded engine returned a non-contiguous run")
			}
			hs := make([]fuzzHandle, n)
			for j := 0; j < n; j++ {
				hs[j] = fuzzHandle{kva: rn.KVA(j), page: start + j, cpu: cpu, private: arg&0x01 != 0}
				verify(&hs[j], cpu)
			}
			runs = append(runs, fuzzRun{r: rn, hs: hs})
		case 7: // free one run
			if len(runs) == 0 {
				continue
			}
			pick := arg % len(runs)
			fr := runs[pick]
			for j := range fr.hs {
				verify(&fr.hs[j], fr.hs[j].cpu)
			}
			r.sf.FreeRun(r.m.Ctx(fr.hs[0].cpu), fr.r)
			runs = append(runs[:pick], runs[pick+1:]...)
		}
	}

	// Drain and audit the ledger: Allocs counts exactly the successfully
	// mapped pages, so after the drain it balances Frees with no
	// failed-attempt skew, and every failed attempt — single, batch, or
	// run — appears in WouldBlock and nowhere else.
	for i := range singles {
		verify(&singles[i], singles[i].cpu)
		r.sf.Free(r.m.Ctx(singles[i].cpu), singles[i].b)
	}
	for _, hs := range batches {
		bufs := make([]*Buf, len(hs))
		for j := range hs {
			verify(&hs[j], hs[j].cpu)
			bufs[j] = hs[j].b
		}
		r.sf.FreeBatch(r.m.Ctx(hs[0].cpu), bufs)
	}
	for _, fr := range runs {
		for j := range fr.hs {
			verify(&fr.hs[j], fr.hs[j].cpu)
		}
		r.sf.FreeRun(r.m.Ctx(fr.hs[0].cpu), fr.r)
	}
	st := r.sf.Stats()
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d after drain", st.Allocs, st.Frees)
	}
	if st.WouldBlock != failedAllocs {
		t.Fatalf("WouldBlock %d != failed allocation attempts %d",
			st.WouldBlock, failedAllocs)
	}
	if got := r.sf.InactiveLen(); got != fuzzEntries {
		t.Fatalf("inactive = %d, want %d after drain", got, fuzzEntries)
	}
	for i, pg := range vmPages {
		if pg.Data()[0] != model[i] {
			t.Fatalf("page %d backing store %#x, model %#x — write hit the wrong frame",
				i, pg.Data()[0], model[i])
		}
	}
}

// TestAllocLedgerRegression replays the exact input with which
// FuzzBatchOps caught the PR-2 ledger asymmetry: a large batch fills the
// cache, a single NoWait Alloc fails, and under the old rule the failed
// single skewed Stats.Allocs while a failed batch would not have.  Under
// the unified rule (Allocs counts only successfully mapped pages) the
// trace's ledger balances, which runBatchOpsTrace now asserts directly.
func TestAllocLedgerRegression(t *testing.T) {
	runBatchOpsTrace(t, []byte("1a1C0700000000"))
}
