#!/usr/bin/env bash
# make reach / CI: the reach audit — which core functions the test suite
# runs, and which the experiments and the repo benchmark run.
#
#   scripts/reach.sh
#
# Copies the checkout (uncommitted and untracked files included, through
# a throwaway index and `git archive`) into a temporary directory, then
# measures statement coverage of the core packages twice:
#
#   - suite reach: `go test -cover -coverpkg=<core> ./...`;
#   - experiment reach: `sfbench -all -scale 0.02` plus `bench -quick`
#     (all five workloads), both built with `go build -cover`.  They are
#     built with -coverpkg=sfbuf/... and filtered to the core afterwards:
#     a -coverpkg list that leaves out the main package makes the binary
#     write no coverage data at all.
#
# It prints one row per core function: file:line, name, suite reach,
# experiment reach.  It fails when a core function has 0% suite reach and
# is not named in scripts/reach.allow, and when an allowlist entry has no
# reason or names a function that is no longer at 0%.  Allowlist lines
# are `<file>:<function> <reason>`, with the file relative to the module
# root and the function as `go tool covdata func` prints it (for example
# `internal/vm/vm.go:*PhysMem.Frames keeps ...`); `#` starts a comment.
#
# Everything runs in the foreground, one process at a time, and the
# temporary directory is removed on exit, whatever the outcome.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$(pwd)

core_dirs="sfbuf kernel smp vm pmap kva netstack kcopy tlb"
core=""
for d in $core_dirs; do core="$core,sfbuf/internal/$d"; done
core=${core#,}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOFLAGS=-buildvcs=false

# The checkout as it stands, through an index of our own so the real one
# is untouched.
GIT_INDEX_FILE="$tmp/index" git read-tree HEAD
GIT_INDEX_FILE="$tmp/index" git add -A
tree=$(GIT_INDEX_FILE="$tmp/index" git write-tree)
mkdir "$tmp/src" "$tmp/suite" "$tmp/exp"
git archive "$tree" | tar -x -C "$tmp/src"
cd "$tmp/src"

echo "reach: suite (go test -cover over the core packages)" >&2
go test -cover -coverpkg="$core" ./... -args -test.gocoverdir="$tmp/suite" >"$tmp/suite.log" 2>&1 || {
	cat "$tmp/suite.log" >&2
	echo "reach: FAIL: the test suite failed" >&2
	exit 1
}

echo "reach: experiments (sfbench -all -scale 0.02, bench -quick)" >&2
go build -cover -coverpkg=sfbuf/... -o "$tmp/sfbench" ./cmd/sfbench
go build -cover -coverpkg=sfbuf/... -o "$tmp/bench" ./bench
GOCOVERDIR="$tmp/exp" "$tmp/sfbench" -all -scale 0.02 >/dev/null
GOCOVERDIR="$tmp/exp" "$tmp/bench" -quick -seed 1 -out "$tmp/bench.json" >/dev/null

# "file:line name percent" per function, core packages only.
funcs() {
	go tool covdata func -i="$1" | awk -v dirs="$core_dirs" '
		BEGIN { n = split(dirs, d, " "); for (i = 1; i <= n; i++) want["sfbuf/internal/" d[i]] = 1 }
		$1 != "total" {
			loc = $1; sub(/:$/, "", loc)
			split(loc, p, ":"); file = p[1]; pkg = file; sub(/\/[^\/]*$/, "", pkg)
			if (pkg in want) { sub(/^sfbuf\//, "", loc); print loc, $2, $NF }
		}' | sort -t: -k1,1 -k2,2n
}
funcs "$tmp/suite" >"$tmp/suite.txt"
funcs "$tmp/exp" >"$tmp/exp.txt"

# Join on file:line and name; a function the experiments never load
# reports 0.0% there.
awk '
	NR == FNR { ran[$1 " " $2] = $3; next }
	{ e = ($1 " " $2) in ran ? ran[$1 " " $2] : "0.0%"; printf "%-48s %-40s %7s %7s\n", $1, $2, $3, e }
' "$tmp/exp.txt" "$tmp/suite.txt" >"$tmp/table.txt"
printf "%-48s %-40s %7s %7s\n" "location" "function" "suite" "exp"
cat "$tmp/table.txt"

# Function key: file (no line) and name.
awk '$3 == "0.0%" { split($1, p, ":"); print p[1] ":" $2 }' "$tmp/table.txt" | sort -u >"$tmp/dead.txt"
grep -v '^[[:space:]]*\(#\|$\)' "$root/scripts/reach.allow" >"$tmp/allow.raw" || true
status=0
while read -r key reason; do
	if [ -z "$reason" ]; then
		echo "reach: FAIL: scripts/reach.allow: $key has no reason" >&2
		status=1
	fi
	if ! grep -qxF "$key" "$tmp/dead.txt"; then
		echo "reach: FAIL: scripts/reach.allow: $key is not a core function at 0% suite reach; remove it" >&2
		status=1
	fi
done <"$tmp/allow.raw"
awk '{ print $1 }' "$tmp/allow.raw" | sort -u >"$tmp/allow.txt"
unlisted=$(comm -23 "$tmp/dead.txt" "$tmp/allow.txt")
if [ -n "$unlisted" ]; then
	echo "reach: FAIL: core functions no test runs (test them, delete them, or list them with a reason in scripts/reach.allow):" >&2
	echo "$unlisted" | sed 's/^/  /' >&2
	status=1
fi
total=$(wc -l <"$tmp/table.txt")
cold=$(awk '$4 == "0.0%"' "$tmp/table.txt" | wc -l)
echo "reach: $total core functions; $(wc -l <"$tmp/dead.txt") at 0% suite reach, $cold at 0% experiment reach" >&2
exit $status
