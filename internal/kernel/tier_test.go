package kernel

import (
	"testing"

	"sfbuf/internal/arch"
)

// TestTierKeeperPrune: noting one extent past tierMaxTracked cuts the
// table to tierMaxTracked/2, keeping the most recently noted extents
// (the one just noted included); among extents noted at the same clock
// the lower signatures go first.
func TestTierKeeperPrune(t *testing.T) {
	k, err := Boot(Config{Platform: arch.XeonMP(), Mapper: SFBuf, PhysPages: 256, CacheEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	const n = tierMaxTracked + 1
	// Extents 1..n were tracked; the newest tierMaxTracked/2 must remain.
	checkKept := func(tk *TierKeeper, what string) {
		t.Helper()
		if len(tk.extents) != tierMaxTracked/2 {
			t.Fatalf("%s: tracked %d after the prune, want %d", what, len(tk.extents), tierMaxTracked/2)
		}
		for sig := uint64(1); sig <= n; sig++ {
			if _, kept := tk.extents[sig]; kept != (sig > n-tierMaxTracked/2) {
				t.Fatalf("%s: extent %d kept %v", what, sig, kept)
			}
		}
	}

	ctx := k.M.Ctx(0)
	tk := newTierKeeper(k, nil)
	for sig := uint64(1); sig <= n; sig++ {
		if sig == n && len(tk.extents) != tierMaxTracked {
			t.Fatalf("before the last note: tracked %d, want %d", len(tk.extents), tierMaxTracked)
		}
		tk.Note(ctx, sig, nil, false) // extent sig is noted at clock sig
	}
	checkKept(tk, "distinct clocks")

	tk = newTierKeeper(k, nil)
	for sig := uint64(1); sig <= n; sig++ {
		e := &tierExtent{}
		e.note(7)
		tk.extents[sig] = e
	}
	tk.pruneLocked()
	checkKept(tk, "tied clocks")
}
