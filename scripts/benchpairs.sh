#!/usr/bin/env bash
# make bench-pairs: the paired-run protocol a PR that claims a host-time
# gain has to follow (choosing-metrics §8), which each gain PR so far did
# by hand.
#
#   scripts/benchpairs.sh <base-ref> <workload> [pairs=10] [seed=1]
#
# Builds ./bench once from <base-ref> (a `git archive` of it, unpacked in
# a temporary directory) and once from this checkout, uncommitted changes
# included, then runs `bench -workload <workload> -seed <seed> -trace 0`
# for BENCHMARK.json's run_seconds as <pairs> base/head pairs, alternating
# which side goes first.  It prints every run, each side's median and
# quartiles of host_pages_per_s (and, as information, its median setup_s
# and host_live_mb), head's wins over the pairs, and whether
#
#   - head won at least nine tenths of the pairs (a tie counts for
#     neither side),
#   - the medians differ by more than the distance between the base's own
#     quartiles, and
#   - sim_cycles_per_page was the same number on every run of both sides.
#
# Exit status 0 when all three hold, 1 when not, 2 on a usage or build
# error, or when a run fails or outlives 3 x run_seconds + 120 s (a hang,
# such as a lock-order slip, then fails the script instead of outliving
# it).  Everything runs in the foreground, one process at a time; the
# temporary directory is removed on exit, whatever the outcome.  Needs jq.
# Keep the box quiet: a `go build` beside a run shows up in its number.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/benchpairs.sh <base-ref> <workload> [pairs=10] [seed=1]" >&2
	exit 2
fi
command -v jq >/dev/null || { echo "benchpairs: jq not found" >&2; exit 2; }
base=$(git rev-parse --verify "$1^{commit}") || exit 2
workload=$2 pairs=${3:-10} seed=${4:-1}
seconds=$(jq -r .run_seconds BENCHMARK.json)
bound=$(awk -v s="$seconds" 'BEGIN { print int(3 * s + 120) }')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOFLAGS=-buildvcs=false

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench.base" ./bench) || exit 2
go build -o "$tmp/bench.head" ./bench || exit 2
echo "benchpairs: $workload, seed $seed, ${seconds}s runs, $pairs pairs: base $(git rev-parse --short "$base") vs head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
echo "  each run: host_pages_per_s sim_cycles_per_page setup_s host_live_mb"

# run <side> <pair>: one run, bounded; prints
# "host_pages_per_s sim_cycles_per_page setup_s host_live_mb".
# --foreground keeps the bench binary in the caller's process group, so
# a kill of that group still reaches it.
run() {
	local dir=$PWD
	[ "$1" = base ] && dir=$tmp/base
	(cd "$dir" && timeout --foreground -k 5 "$bound" "$tmp/bench.$1" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0 -out "$tmp/$1.$2.json" >/dev/null) ||
		{ echo "benchpairs: $1 run $2 failed or outlived ${bound}s" >&2; exit 2; }
	jq -r --arg w "$workload" '.workloads[$w] | if .correct then .metrics else error("incorrect run") end
		| "\(.host_pages_per_s.value) \(.sim_cycles_per_page.value) \(.setup_s.value) \(.host_live_mb.value)"' "$tmp/$1.$2.json"
}

: >"$tmp/runs"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$i")
		h=$(run head "$i")
	else
		h=$(run head "$i")
		b=$(run base "$i")
	fi
	echo "$i $b $h" >>"$tmp/runs"
	echo "  pair $i: base/head: $b / $h"
done

# Quartiles by linear interpolation between order statistics.
awk '
function quantile(v, n, q,    pos, lo) {
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
{
	n++; base[n] = $2; head[n] = $6
	bsetup[n] = $4; blive[n] = $5; hsetup[n] = $8; hlive[n] = $9
	if ($6 > $2) wins++; else if ($6 < $2) losses++
	if (n == 1) sim = $3
	if ($3 != sim || $7 != sim) simdiff = 1
}
END {
	sorted(base, b, n); sorted(head, h, n)
	bq1 = quantile(b, n, .25); bmed = quantile(b, n, .5); bq3 = quantile(b, n, .75)
	hq1 = quantile(h, n, .25); hmed = quantile(h, n, .5); hq3 = quantile(h, n, .75)
	printf "base host_pages_per_s: median %.6g  quartiles %.6g .. %.6g\n", bmed, bq1, bq3
	printf "head host_pages_per_s: median %.6g  quartiles %.6g .. %.6g  (%.3fx the base median)\n", hmed, hq1, hq3, hmed / bmed
	sorted(bsetup, bs, n); sorted(hsetup, hs, n); sorted(blive, bl, n); sorted(hlive, hl, n)
	printf "median setup_s %.4g -> %.4g, host_live_mb %.4g -> %.4g\n", quantile(bs, n, .5), quantile(hs, n, .5), quantile(bl, n, .5), quantile(hl, n, .5)
	printf "head won %d of %d pairs, lost %d\n", wins, n, losses
	ok = 1
	if (wins < 0.9 * n) { ok = 0; print "NOT MET: fewer than nine tenths of the pairs won" }
	if (hmed - bmed <= bq3 - bq1) { ok = 0; printf "NOT MET: median gap %.6g within the base interquartile distance %.6g\n", hmed - bmed, bq3 - bq1 }
	else printf "median gap %.6g exceeds the base interquartile distance %.6g\n", hmed - bmed, bq3 - bq1
	if (simdiff) { ok = 0; print "NOT MET: sim_cycles_per_page differed between runs" }
	else printf "sim_cycles_per_page %s on every run\n", sim
	print ok ? "benchpairs: gain rule met" : "benchpairs: gain rule NOT met"
	exit !ok
}' "$tmp/runs"
