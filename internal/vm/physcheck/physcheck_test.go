package physcheck

// Table-driven reservation traces: every step of every trace is followed
// by the full invariant battery — structural Audit, temporal reservation
// Checker, and the byte Oracle.

import (
	"errors"
	"testing"

	"sfbuf/internal/vm"
)

const span = 512 // pmap.SuperpagePages without the import cycle risk
const spanOrder = 9

// harness owns a trace's pages and runs the checks after every step.
type harness struct {
	t      *testing.T
	pm     *vm.PhysMem
	chk    *Checker
	held   []*vm.Page
	oracle *Oracle
	sig    byte

	contigOK   int
	contigFail int
}

func newHarness(t *testing.T, pm *vm.PhysMem) *harness {
	return &harness{t: t, pm: pm, chk: NewChecker(pm), oracle: NewOracle(nil)}
}

// check runs the invariant battery; step re-snapshots the temporal checker.
func (h *harness) check() {
	h.t.Helper()
	if err := Audit(h.pm); err != nil {
		h.t.Fatal(err)
	}
	if err := h.chk.Step(h.pm); err != nil {
		h.t.Fatal(err)
	}
	if err := h.oracle.Check(h.pm); err != nil {
		h.t.Fatal(err)
	}
}

// hold signs and retains freshly allocated pages and refreshes the oracle.
func (h *harness) hold(pages ...*vm.Page) {
	for _, p := range pages {
		h.sig++
		if d := p.Data(); d != nil {
			d[0], d[7], d[len(d)-1] = h.sig, ^h.sig, h.sig
		}
		h.held = append(h.held, p)
	}
	h.oracle = NewOracle(h.held)
}

func (h *harness) alloc(socket int) {
	h.t.Helper()
	p, err := h.pm.AllocOn(socket)
	if err != nil {
		h.t.Fatal(err)
	}
	h.hold(p)
	h.check()
}

func (h *harness) allocN(n int) {
	h.t.Helper()
	pages, err := h.pm.AllocN(n)
	if err != nil {
		h.t.Fatal(err)
	}
	h.hold(pages...)
	h.check()
}

func (h *harness) contig(n int) {
	h.t.Helper()
	pages, err := h.pm.AllocContig(n, n)
	switch {
	case err == nil:
		h.contigOK++
		h.hold(pages...)
	case errors.Is(err, vm.ErrNoContig) || errors.Is(err, vm.ErrNoMemory):
		h.contigFail++
	default:
		h.t.Fatal(err)
	}
	h.check()
}

// freeExcept frees every held page whose current frame keep rejects.
func (h *harness) freeExcept(keep func(frame uint64) bool) {
	h.t.Helper()
	kept := h.held[:0]
	for _, p := range h.held {
		if keep(p.Frame()) {
			kept = append(kept, p)
			continue
		}
		h.pm.Free(p)
	}
	h.held = kept
	h.oracle = NewOracle(h.held)
	h.check()
}

func TestReservationMigrationTraces(t *testing.T) {
	type step struct {
		op     string // alloc | allocN | contig | freeExcept
		n      int    // alloc socket / allocN count / contig size
		keep   func(uint64) bool
		repeat int
	}
	cases := []struct {
		name            string
		frames, sockets int
		reservLow       int // 0: no reservation
		script          []step
		verify          func(*testing.T, *vm.PhysMem, *harness)
	}{
		{
			// Boot cover of 1..2048 holds 3 intact spans (one order-9, two in
			// the order-10 block) and 512 sub-span frames.  At lowWater 3 the
			// pool is protected from the start: singles must drain every
			// sub-span frame (the last one by steering around the order-9
			// block), and only then split protected stock — with the spill
			// counted.
			name: "steer-then-spill", frames: 2048, sockets: 1, reservLow: 3,
			script: []step{
				{op: "alloc", n: -1, repeat: 516},
			},
			verify: func(t *testing.T, pm *vm.PhysMem, h *harness) {
				st := pm.PhysStats()
				if st.ReservSteers == 0 {
					t.Errorf("no steer recorded: %+v", st)
				}
				if st.ReservSpills == 0 {
					t.Errorf("no spill recorded after exhausting sub-span frames: %+v", st)
				}
			},
		},
		{
			// The watermark defense in one picture: churn that would have
			// nibbled the last spans gets steered, so AllocContig still
			// succeeds at the end.
			name: "reservation-keeps-contig-alive", frames: 4096, sockets: 1, reservLow: 2,
			script: []step{
				{op: "allocN", n: 2900},
				{op: "freeExcept", keep: func(f uint64) bool { return f%3 == 0 && f < 1024 }},
				{op: "alloc", n: -1, repeat: 600},
				{op: "contig", n: span},
			},
			verify: func(t *testing.T, pm *vm.PhysMem, h *harness) {
				if h.contigOK == 0 {
					t.Errorf("AllocContig failed despite the reservation (fails=%d)", h.contigFail)
				}
			},
		},
		{
			// Two sockets: reservation accounting is per socket; Audit
			// additionally proves no block ever straddles the boundary.
			name: "two-socket-trace", frames: 4096, sockets: 2, reservLow: 2,
			script: []step{
				{op: "allocN", n: 3000},
				{op: "freeExcept", keep: func(f uint64) bool { return f%131 == 7 }},
				{op: "alloc", n: 1, repeat: 40},
				{op: "alloc", n: 0, repeat: 40},
				{op: "contig", n: span},
			},
			verify: func(t *testing.T, pm *vm.PhysMem, h *harness) {},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pm := vm.NewPhysMemNUMA(tc.frames, true, tc.sockets)
			if tc.reservLow > 0 {
				pm.SetReservation(spanOrder, tc.reservLow)
			}
			h := newHarness(t, pm)
			for _, s := range tc.script {
				n := s.repeat
				if n == 0 {
					n = 1
				}
				for i := 0; i < n; i++ {
					switch s.op {
					case "alloc":
						h.alloc(s.n)
					case "allocN":
						h.allocN(s.n)
					case "contig":
						h.contig(s.n)
					case "freeExcept":
						h.freeExcept(s.keep)
					default:
						t.Fatalf("unknown op %q", s.op)
					}
				}
			}
			tc.verify(t, pm, h)
			// Drain: everything frees cleanly and the pool audits whole.
			for _, p := range h.held {
				pm.Free(p)
			}
			h.held = nil
			h.oracle = NewOracle(nil)
			h.check()
			if st := pm.PhysStats(); st.FreeFrames != tc.frames {
				t.Fatalf("leak: %d of %d frames free after drain", st.FreeFrames, tc.frames)
			}
		})
	}
}

// TestOracleSeesNeverWrittenPages: a backed page that was never written
// has no storage and reads as zeros, and the oracle must hold it to that —
// a stale write landing in it is corruption like any other.
func TestOracleSeesNeverWrittenPages(t *testing.T) {
	pm := vm.NewPhysMem(64, true)
	pages, err := pm.AllocN(4)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(pages)
	if err := o.Check(pm); err != nil {
		t.Fatal(err)
	}
	pm.Store(pages[2], 100, []byte{0xBD})
	if err := o.Check(pm); err == nil {
		t.Fatal("a stale write into a never-written backed page escaped the oracle")
	}
}
