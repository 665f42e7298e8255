#!/usr/bin/env bash
# make bench-compare / CI: the "simulated figures bit-identical against
# the prior tip" check each PR used to do by hand.
#
#   scripts/benchcompare.sh [base-ref]
#
# Unpacks the merge-base of HEAD and base-ref (default origin/main, else
# main) into a temporary directory (`git archive`), builds ./bench once
# there and once from this checkout with `go build`, runs both binaries
# with `-quick` and one seed, and compares the two results.
# When the merge-base is HEAD itself, as on main, the base is HEAD~1 —
# unless the working tree has uncommitted changes, which are then what is
# compared against HEAD.
#
#   - every exact metric (sim_*, paper_err_pp, fail_frac) of every
#     workload must be equal to the last digit, or the script fails: a
#     simulated number moved, and the change must say why;
#   - `bench -compare`'s verdicts on the host metrics are printed as
#     information only.  A -quick run on a shared box cannot resolve them.
#
# Everything runs in the foreground, one process at a time, and the
# binaries run directly (no `go run` parent sits over a child), each
# bounded at 300 s so a hang fails the script instead of outliving it;
# `timeout --foreground` keeps each binary in the caller's process group,
# so a kill of that group still reaches it.  The temporary directory is
# removed on exit, whatever the outcome.  Needs jq.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

command -v jq >/dev/null || { echo "benchcompare: jq not found" >&2; exit 2; }

base_ref=${1:-}
if [ -z "$base_ref" ]; then
	base_ref=main
	if git rev-parse -q --verify origin/main >/dev/null; then
		base_ref=origin/main
	fi
fi
base=$(git merge-base HEAD "$base_ref")
if [ "$base" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
	base=$(git rev-parse HEAD~1)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOFLAGS=-buildvcs=false

mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
if [ ! -d "$tmp/base/bench" ]; then
	echo "benchcompare: $(git rev-parse --short "$base") has no bench/: nothing to compare against"
	exit 0
fi
(cd "$tmp/base" && go build -o "$tmp/bench.base" ./bench)
go build -o "$tmp/bench.head" ./bench

echo "benchcompare: base $(git rev-parse --short "$base"), head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
bounded() { timeout --foreground -k 5 300 "$@"; }
(cd "$tmp/base" && bounded "$tmp/bench.base" -quick -seed 1 -out "$tmp/base.json" >/dev/null)
bounded "$tmp/bench.head" -quick -seed 1 -out "$tmp/head.json" >/dev/null

# Host verdicts: information.
bounded "$tmp/bench.head" -compare "$tmp/base.json" "$tmp/head.json" || true

# "workload metric value" for every exact metric, at full precision.
exact() {
	jq -r '.workloads | to_entries[] | .key as $w | .value.metrics | to_entries[]
		| select(.key | test("^sim_|^paper_err_pp$|^fail_frac$"))
		| "\($w) \(.key) \(.value.value)"' "$1" | sort
}
if ! diff <(exact "$tmp/base.json") <(exact "$tmp/head.json"); then
	echo "benchcompare: FAIL: exact metrics differ from the base (< base, > head)" >&2
	exit 1
fi
echo "benchcompare: ok: every exact metric equals the base's"
