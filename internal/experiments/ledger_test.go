package experiments

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger from this checkout")

// ledgerScale is the scale every ledger table is rendered at: the whole
// replayable set runs in a couple of seconds.
const ledgerScale = 0.02

// TestLedger is the results ledger: every experiment's rendered table at
// ledgerScale followed by its metrics block, checked in under
// testdata/ledger and diffed byte for byte.  A change that moves any
// simulated number turns it red: the tables round, so the metrics block
// carries each experiment's headline values at full precision.  Never
// regenerate it to make a change pass: a diff means a mapping engine's
// economy moved (in scale.txt, a churn economy).  Regenerate with -update
// only when a number is meant to move, and say which rows moved and why.
func TestLedger(t *testing.T) {
	dir := filepath.Join("testdata", "ledger")
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkLedgerFile(t, id)
		})
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".txt"); !ids[id] {
			t.Errorf("%s: no experiment %s", f, id)
		}
	}
}

// TestScaleGolden is the scale table's view of the ledger: every cell
// and metric of scale.txt, the standing proof that the scale table's
// row and column deletions left the contention rows unchanged.  It has
// no copy of its own; it checks the same file TestLedger/scale does.
func TestScaleGolden(t *testing.T) {
	checkLedgerFile(t, "scale")
}

// checkLedgerFile runs experiment id at ledgerScale and diffs it against
// testdata/ledger/<id>.txt, or rewrites that file under -update.
func checkLedgerFile(t *testing.T, id string) {
	t.Helper()
	res, err := registry[id](Options{Scale: ledgerScale})
	if err != nil {
		t.Fatal(err)
	}
	got := ledgerText(res)
	path := filepath.Join("testdata", "ledger", id+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the ledger:\n%s", id, lineDiff(string(want), got))
	}
}

// ledgerText is one ledger file: the rendered table, then a metrics
// block of every Result.Metrics key in sorted order at %v precision.
func ledgerText(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Render())
	b.WriteString("metrics\n")
	for _, k := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(&b, "%s %v\n", k, res.Metrics[k])
	}
	return b.String()
}

// lineDiff lists the lines that differ between want and got, by line
// number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
