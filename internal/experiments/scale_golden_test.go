package experiments

import "testing"

// TestScaleGolden pins every cell and every metric of the scale table at
// scale 0.02, captured on the commit before the table lost its reclaim,
// numa, defrag and tier rows and its remote-lock, remote-IPI, promotion
// and fast-tier columns.  It is the standing proof that those deletions
// left the contention rows unchanged.  Never regenerate it to make a
// change pass: a diff here means a mapping engine's churn economy moved.
func TestScaleGolden(t *testing.T) {
	res, err := RunScale(Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(scaleGoldenRows) {
		t.Fatalf("scale has %d rows, golden %d", len(res.Rows), len(scaleGoldenRows))
	}
	for i, want := range scaleGoldenRows {
		got := res.Rows[i]
		if len(got) != len(want) {
			t.Fatalf("row %d has %d cells, golden %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("row %q column %q = %q, golden %q", want[0], res.Columns[j], got[j], want[j])
			}
		}
	}
	if len(res.Metrics) != len(scaleGoldenMetrics) {
		t.Errorf("scale has %d metrics, golden %d", len(res.Metrics), len(scaleGoldenMetrics))
	}
	for key, want := range scaleGoldenMetrics {
		if got, ok := res.Metrics[key]; !ok || got != want {
			t.Errorf("metric %s = %v (present %v), golden %v", key, got, ok, want)
		}
	}
}

// scaleGoldenRows are the rendered rows, one per variant.
var scaleGoldenRows = [][]string{
	{"sf_buf sharded", "4000", "0.16", "824.0", "51.5", "154.5", "3.62", "1.000", "1.000", "16.0", "-"},
	{"sf_buf global-lock", "4000", "0.18", "823.0", "823.0", "2469", "2.00", "1.000", "1.000", "0.00", "-"},
	{"original", "4000", "0.00", "1000", "1000", "3000", "2.00", "1.000", "1.000", "0.00", "-"},
	{"sf_buf sharded batch", "4000", "0.17", "820.0", "51.2", "153.8", "2.56", "1.000", "1.000", "16.0", "-"},
	{"sf_buf global-lock batch", "4000", "0.17", "829.2", "829.2", "2488", "2.00", "1.000", "1.000", "0.00", "-"},
	{"original batch", "4000", "0.00", "1000", "1000", "3000", "2.00", "1.000", "1.000", "0.00", "-"},
	{"sf_buf sharded run", "4000", "0.00", "992.0", "15.5", "46.5", "0.50", "0.125", "1.000", "64.0", "-"},
	{"sf_buf global-lock run", "4000", "0.17", "829.2", "829.2", "2488", "2.00", "1.000", "1.000", "0.00", "-"},
	{"original run", "4000", "0.00", "1000", "1000", "3000", "2.00", "1.000", "1.000", "0.00", "-"},
	{"sf_buf sharded adaptive", "4000", "0.00", "992.0", "15.5", "46.5", "0.62", "0.125", "1.000", "64.0", "-"},
	{"sf_buf global-lock adaptive", "4000", "0.17", "829.2", "829.2", "2488", "2.00", "1.000", "1.000", "0.00", "-"},
	{"original adaptive", "4000", "0.00", "1000", "1000", "3000", "2.00", "1.000", "1.000", "0.00", "-"},
	{"sf_buf sharded frag", "4000", "1.00", "0.00", "0.00", "0.00", "0.50", "0.001", "0.008", "0.00", "1.00"},
	{"sf_buf global-lock frag", "4000", "1.00", "2.00", "2.00", "6.00", "2.00", "0.008", "0.008", "0.00", "0.00"},
	{"original frag", "4000", "0.00", "1000", "1000", "3000", "2.00", "1.000", "1.000", "0.00", "0.00"},
}

// scaleGoldenMetrics are the exact metric values.
var scaleGoldenMetrics = map[string]float64{
	"coalesce/original":                          0,
	"coalesce/original adaptive":                 0,
	"coalesce/original batch":                    0,
	"coalesce/original frag":                     0,
	"coalesce/original run":                      0,
	"coalesce/sf_buf global-lock":                0,
	"coalesce/sf_buf global-lock adaptive":       0,
	"coalesce/sf_buf global-lock batch":          0,
	"coalesce/sf_buf global-lock frag":           0,
	"coalesce/sf_buf global-lock run":            0,
	"coalesce/sf_buf sharded":                    16,
	"coalesce/sf_buf sharded adaptive":           64,
	"coalesce/sf_buf sharded batch":              16,
	"coalesce/sf_buf sharded frag":               0,
	"coalesce/sf_buf sharded run":                64,
	"contig_frac/original frag":                  0,
	"contig_frac/sf_buf global-lock frag":        0,
	"contig_frac/sf_buf sharded frag":            1,
	"hitrate/original":                           0,
	"hitrate/original adaptive":                  0,
	"hitrate/original batch":                     0,
	"hitrate/original frag":                      0,
	"hitrate/original run":                       0,
	"hitrate/sf_buf global-lock":                 0.177,
	"hitrate/sf_buf global-lock adaptive":        0.17075,
	"hitrate/sf_buf global-lock batch":           0.17075,
	"hitrate/sf_buf global-lock frag":            0.998,
	"hitrate/sf_buf global-lock run":             0.17075,
	"hitrate/sf_buf sharded":                     0.16225,
	"hitrate/sf_buf sharded adaptive":            0,
	"hitrate/sf_buf sharded batch":               0.16575,
	"hitrate/sf_buf sharded frag":                0.998,
	"hitrate/sf_buf sharded run":                 0,
	"ipis_per_kop/original":                      3000,
	"ipis_per_kop/original adaptive":             3000,
	"ipis_per_kop/original batch":                3000,
	"ipis_per_kop/original frag":                 3000,
	"ipis_per_kop/original run":                  3000,
	"ipis_per_kop/sf_buf global-lock":            2469,
	"ipis_per_kop/sf_buf global-lock adaptive":   2487.75,
	"ipis_per_kop/sf_buf global-lock batch":      2487.75,
	"ipis_per_kop/sf_buf global-lock frag":       6,
	"ipis_per_kop/sf_buf global-lock run":        2487.75,
	"ipis_per_kop/sf_buf sharded":                154.5,
	"ipis_per_kop/sf_buf sharded adaptive":       46.5,
	"ipis_per_kop/sf_buf sharded batch":          153.75,
	"ipis_per_kop/sf_buf sharded frag":           0,
	"ipis_per_kop/sf_buf sharded run":            46.5,
	"local_per_kop/original":                     1000,
	"local_per_kop/original adaptive":            1000,
	"local_per_kop/original batch":               1000,
	"local_per_kop/original frag":                1000,
	"local_per_kop/original run":                 1000,
	"local_per_kop/sf_buf global-lock":           823,
	"local_per_kop/sf_buf global-lock adaptive":  829.25,
	"local_per_kop/sf_buf global-lock batch":     829.25,
	"local_per_kop/sf_buf global-lock frag":      2,
	"local_per_kop/sf_buf global-lock run":       829.25,
	"local_per_kop/sf_buf sharded":               824,
	"local_per_kop/sf_buf sharded adaptive":      992,
	"local_per_kop/sf_buf sharded batch":         820,
	"local_per_kop/sf_buf sharded frag":          0,
	"local_per_kop/sf_buf sharded run":           992,
	"locks_per_op/original":                      2,
	"locks_per_op/original adaptive":             2,
	"locks_per_op/original batch":                2,
	"locks_per_op/original frag":                 2,
	"locks_per_op/original run":                  2,
	"locks_per_op/sf_buf global-lock":            2,
	"locks_per_op/sf_buf global-lock adaptive":   2,
	"locks_per_op/sf_buf global-lock batch":      2,
	"locks_per_op/sf_buf global-lock frag":       2,
	"locks_per_op/sf_buf global-lock run":        2,
	"locks_per_op/sf_buf sharded":                3.62075,
	"locks_per_op/sf_buf sharded adaptive":       0.625,
	"locks_per_op/sf_buf sharded batch":          2.5595,
	"locks_per_op/sf_buf sharded frag":           0.5,
	"locks_per_op/sf_buf sharded run":            0.5,
	"remote_per_kop/original":                    1000,
	"remote_per_kop/original adaptive":           1000,
	"remote_per_kop/original batch":              1000,
	"remote_per_kop/original frag":               1000,
	"remote_per_kop/original run":                1000,
	"remote_per_kop/sf_buf global-lock":          823,
	"remote_per_kop/sf_buf global-lock adaptive": 829.25,
	"remote_per_kop/sf_buf global-lock batch":    829.25,
	"remote_per_kop/sf_buf global-lock frag":     2,
	"remote_per_kop/sf_buf global-lock run":      829.25,
	"remote_per_kop/sf_buf sharded":              51.5,
	"remote_per_kop/sf_buf sharded adaptive":     15.5,
	"remote_per_kop/sf_buf sharded batch":        51.25,
	"remote_per_kop/sf_buf sharded frag":         0,
	"remote_per_kop/sf_buf sharded run":          15.5,
	"tlb_per_op/original":                        1,
	"tlb_per_op/original adaptive":               1,
	"tlb_per_op/original batch":                  1,
	"tlb_per_op/original frag":                   1,
	"tlb_per_op/original run":                    1,
	"tlb_per_op/sf_buf global-lock":              1,
	"tlb_per_op/sf_buf global-lock adaptive":     1,
	"tlb_per_op/sf_buf global-lock batch":        1,
	"tlb_per_op/sf_buf global-lock frag":         0.008,
	"tlb_per_op/sf_buf global-lock run":          1,
	"tlb_per_op/sf_buf sharded":                  1,
	"tlb_per_op/sf_buf sharded adaptive":         1,
	"tlb_per_op/sf_buf sharded batch":            1,
	"tlb_per_op/sf_buf sharded frag":             0.008,
	"tlb_per_op/sf_buf sharded run":              1,
	"walks_per_op/original":                      1,
	"walks_per_op/original adaptive":             1,
	"walks_per_op/original batch":                1,
	"walks_per_op/original frag":                 1,
	"walks_per_op/original run":                  1,
	"walks_per_op/sf_buf global-lock":            1,
	"walks_per_op/sf_buf global-lock adaptive":   1,
	"walks_per_op/sf_buf global-lock batch":      1,
	"walks_per_op/sf_buf global-lock frag":       0.008,
	"walks_per_op/sf_buf global-lock run":        1,
	"walks_per_op/sf_buf sharded":                1,
	"walks_per_op/sf_buf sharded adaptive":       0.125,
	"walks_per_op/sf_buf sharded batch":          1,
	"walks_per_op/sf_buf sharded frag":           0.001,
	"walks_per_op/sf_buf sharded run":            0.125,
}
