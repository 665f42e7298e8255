package kernel

import (
	"math/rand"
	"testing"

	"sfbuf/internal/arch"
	"sfbuf/internal/vm"
)

// refRecency is the adaptive policy's recency tracking as it was before
// its tables became frame-indexed: Go maps of logical clocks keyed by
// frame and by extent signature, swept by pruneLocked.  It is kept as
// the reference model MapConsumer.observe must agree with exactly.
type refRecency struct {
	pageWindow uint64
	classes    [contigClassCount]contigClass
	pageSeen   map[uint64]uint64
	extSeen    map[uint64]uint64
	pageClock  uint64
	extClock   uint64
	pruned     int // entries pruneLocked dropped, to prove the path ran
}

func newRefRecency(pageWindow uint64) *refRecency {
	r := &refRecency{pageWindow: pageWindow, pageSeen: map[uint64]uint64{}, extSeen: map[uint64]uint64{}}
	for i := range r.classes {
		r.classes[i].run = true
	}
	return r
}

func (r *refRecency) observe(cl *contigClass, pages []*vm.Page) (sig uint64) {
	seen := 0
	for _, pg := range pages {
		f := pg.Frame()
		if at, ok := r.pageSeen[f]; ok && r.pageClock-at <= r.pageWindow {
			seen++
		}
		r.pageSeen[f] = r.pageClock
		r.pageClock++
	}
	pageReuse := float64(seen) / float64(len(pages))

	sig = vm.ExtentID(pages)
	extReuse := 0.0
	if at, ok := r.extSeen[sig]; ok && r.extClock-at <= extentRecentWindow {
		extReuse = 1.0
	}
	r.extSeen[sig] = r.extClock
	r.extClock++

	cl.pageEWMA += adaptiveAlpha * (pageReuse - cl.pageEWMA)
	cl.extEWMA += adaptiveAlpha * (extReuse - cl.extEWMA)
	cl.obs++
	if cl.obs%adaptiveEpoch == 0 {
		score := cl.pageEWMA * (1 - cl.extEWMA)
		switch {
		case cl.run && score > adaptiveFlipToBatch:
			cl.run = false
			cl.flips++
		case !cl.run && score < adaptiveFlipToRun:
			cl.run = true
			cl.flips++
		}
	}
	r.pruneLocked()
	return sig
}

func (r *refRecency) pruneLocked() {
	if uint64(len(r.pageSeen)) > 4*r.pageWindow {
		for f, at := range r.pageSeen {
			if r.pageClock-at > r.pageWindow {
				delete(r.pageSeen, f)
				r.pruned++
			}
		}
	}
	if len(r.extSeen) > 4*extentRecentWindow {
		for s, at := range r.extSeen {
			if r.extClock-at > extentRecentWindow {
				delete(r.extSeen, s)
				r.pruned++
			}
		}
	}
}

// TestRecencyTablesMatchMapReference drives the frame-indexed page clock
// and the extent ring beside the map-and-prune reference over seeded
// extent traces, and requires the same EWMAs, modes, flips and signature
// after every step.  The traces sweep more than four page windows of
// distinct frames (the reference's prune path), run under a cache small
// enough to cap the page window and one large enough not to, repeat
// extents at distances of exactly 16 and 17 observations (the extent
// window's edge).  Hot phases (pages repeat, extents do not) alternate
// with mixed ones, so classes flip both ways.
func TestRecencyTablesMatchMapReference(t *testing.T) {
	cases := []struct {
		name       string
		entries    int
		phys       int
		sweep      int
		steps      int
		seed       int64
		pageWindow uint64
	}{
		{"capped window", 64, 4096, 1024, 3000, 1, 64},
		{"full window", 8192, 40960, 20000, 3000, 2, pageRecentWindow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, err := Boot(Config{Platform: arch.XeonMPHTT(), Mapper: SFBuf, Cache: CacheSharded,
				PhysPages: tc.phys, CacheEntries: tc.entries})
			if err != nil {
				t.Fatal(err)
			}
			c := k.Consumer("recency")
			if !c.adaptive || c.pageWindow != tc.pageWindow {
				t.Fatalf("adaptive %v, page window %d; want adaptive, %d", c.adaptive, c.pageWindow, tc.pageWindow)
			}
			phys := k.M.Phys
			sweep, err := phys.AllocN(tc.sweep)
			if err != nil {
				t.Fatal(err)
			}
			hotSet, err := phys.AllocN(48)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefRecency(c.pageWindow)
			rng := rand.New(rand.NewSource(tc.seed))
			var history [][]*vm.Page
			frames := map[uint64]bool{}
			at, repeats16, repeats17 := 0, 0, 0
			for step := 0; step < tc.steps; step++ {
				var ext []*vm.Page
				p := rng.Intn(100)
				if step/500%2 == 1 {
					p = 50 // a hot phase: pages repeat, extents do not
				}
				switch {
				case p < 20 && len(history) >= 16:
					ext = history[len(history)-16]
					repeats16++
				case p < 35 && len(history) >= 17:
					ext = history[len(history)-17]
					repeats17++
				case p < 60:
					n := 2 + rng.Intn(15)
					off := rng.Intn(len(hotSet) - n + 1)
					ext = hotSet[off : off+n]
				default:
					n := 2 + rng.Intn(69)
					if at+n > len(sweep) {
						at = 0
					}
					ext = sweep[at : at+n]
					at += n
				}
				for _, pg := range ext {
					frames[pg.Frame()] = true
				}
				history = append(history, ext)

				c.mu.Lock()
				ci := classIdx(len(ext))
				c.observe(&c.classes[ci], ext)
				got, pc, ec := c.classes, c.pageClock, c.extClock
				sig := c.extSeen[(ec-1)%extentRecentWindow]
				c.mu.Unlock()
				if rsig := ref.observe(&ref.classes[ci], ext); sig != rsig {
					t.Fatalf("step %d: sig %#x; reference %#x", step, sig, rsig)
				}
				if got != ref.classes {
					t.Fatalf("step %d: classes\n%+v\nreference\n%+v", step, got, ref.classes)
				}
				if pc != ref.pageClock || ec != ref.extClock {
					t.Fatalf("step %d: clocks %d, %d; reference %d, %d", step, pc, ec, ref.pageClock, ref.extClock)
				}
			}
			flips := uint64(0)
			for _, cl := range ref.classes {
				flips += cl.flips
			}
			t.Logf("%d distinct frames, %d pruned, %d/%d repeats at 16/17, %d flips",
				len(frames), ref.pruned, repeats16, repeats17, flips)
			if uint64(len(frames)) <= 4*c.pageWindow || ref.pruned == 0 {
				t.Fatalf("%d distinct frames, %d pruned: the trace never reached the reference's prune path",
					len(frames), ref.pruned)
			}
			if repeats16 == 0 || repeats17 == 0 || flips == 0 {
				t.Fatal("the trace missed a repeat distance or a mode flip")
			}
		})
	}
}
