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

// ledgerExcluded names the experiments whose rendered tables are not yet
// replayable, with the reason.  They leave the list once their workers
// run on one simulated clock (ROADMAP item 8).
var ledgerExcluded = map[string]string{
	"fig11": "netperf's sender and receiver are goroutines: rare last-digit jitter",
	"fig12": "netperf's sender and receiver are goroutines: rare last-digit jitter",
	"fig15": "the web server's workers are goroutines",
	"fig16": "the web server's workers are goroutines",
	"fig17": "the web server's workers are goroutines",
	"fig18": "the web server's workers are goroutines",
	"fig19": "the web server's workers are goroutines",
	"fig20": "the web server's workers are goroutines",
}

// TestLedger is the results ledger: every replayable experiment's
// rendered table at ledgerScale followed by its metrics block, checked in
// under testdata/ledger and diffed byte for byte.  A change that moves
// any simulated number turns it red: the tables round, so the metrics
// block carries each experiment's headline values at full precision.
// Regenerate with -update only when a number is meant to move, and say
// which rows moved and why.
func TestLedger(t *testing.T) {
	dir := filepath.Join("testdata", "ledger")
	ids := map[string]bool{}
	for _, id := range IDs() {
		ids[id] = true
		if _, ok := ledgerExcluded[id]; ok {
			continue
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := registry[id](Options{Scale: ledgerScale})
			if err != nil {
				t.Fatal(err)
			}
			got := ledgerText(res)
			path := filepath.Join(dir, id+".txt")
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
		})
	}
	for id := range ledgerExcluded {
		if !ids[id] {
			t.Errorf("excluded experiment %s is not registered", id)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if _, excluded := ledgerExcluded[id]; !ids[id] || excluded {
			t.Errorf("%s: no replayable experiment %s", f, id)
		}
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
