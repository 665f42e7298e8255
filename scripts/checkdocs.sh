#!/bin/sh
# Documentation gate (make docs / CI):
#   1. every Go package — the root sfbuf facade, every internal/
#      package, and every cmd/ and examples/ command — must carry a
#      godoc package comment in a non-test file: "// Package <name> ..."
#      for libraries, any doc comment directly above the package clause
#      ("// Command x ...", "// Quickstart ...") for package main;
#   2. every relative link in README.md and docs/*.md must resolve;
#   3. every `make <target>` that README.md, docs/*.md or the verify
#      skill names (in a code span, or at the start of a line in a
#      fenced block) must be a Makefile target, and every
#      `go run ./cmd/<x>` must name an existing directory.
set -eu
cd "$(dirname "$0")/.."
fail=0

for dir in . internal/* cmd/* examples/*; do
	[ -d "$dir" ] || continue
	gofile=""
	for f in "$dir"/*.go; do
		[ -e "$f" ] || continue
		case "$f" in *_test.go) continue ;; esac
		gofile=$f
		break
	done
	[ -n "$gofile" ] || continue
	pkg=$(sed -n 's/^package \([a-zA-Z0-9_]*\).*/\1/p' "$gofile" | head -1)
	found=0
	for f in "$dir"/*.go; do
		case "$f" in *_test.go) continue ;; esac
		[ -e "$f" ] || continue
		if [ "$pkg" = "main" ]; then
			# A doc comment ends on the line directly above the package
			# clause.
			if grep -B1 "^package main" "$f" | head -1 | grep -q "^//"; then
				found=1
				break
			fi
		elif grep -q "^// Package $pkg " "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "missing package comment: $dir (package $pkg)"
		fail=1
	fi
done

for md in README.md docs/*.md; do
	[ -e "$md" ] || continue
	base=$(dirname "$md")
	for link in $(grep -o '](\([^)]*\))' "$md" | sed 's/^](\(.*\))$/\1/'); do
		case "$link" in
		http://* | https://* | \#*) continue ;;
		esac
		target=${link%%#*}
		[ -n "$target" ] || continue
		if [ ! -e "$base/$target" ] && [ ! -e "$target" ]; then
			echo "broken link in $md: $link"
			fail=1
		fi
	done
done

targets=$(sed -n 's/^\([A-Za-z0-9_-][A-Za-z0-9_-]*\):.*/\1/p' Makefile)
for md in README.md docs/*.md .claude/skills/verify/SKILL.md; do
	[ -e "$md" ] || continue
	for t in $(awk '
		/^[ \t]*```/ { fence = !fence; next }
		{
			line = $0
			if (fence && match(line, /^[ \t]*make [A-Za-z0-9_-]+/)) {
				s = substr(line, RSTART, RLENGTH); sub(/^[ \t]*make /, "", s); print s
			}
			while (match(line, /`make [A-Za-z0-9_-]+/)) {
				print substr(line, RSTART + 6, RLENGTH - 6)
				line = substr(line, RSTART + RLENGTH)
			}
		}' "$md" | sort -u); do
		if ! printf '%s\n' $targets | grep -qx -- "$t"; then
			echo "unknown make target in $md: make $t"
			fail=1
		fi
	done
	for c in $(grep -o 'go run \./cmd/[A-Za-z0-9_-]*' "$md" | sed 's|.*\./cmd/||' | sort -u); do
		if [ ! -d "cmd/$c" ]; then
			echo "missing command in $md: go run ./cmd/$c"
			fail=1
		fi
	done
done

if [ "$fail" -ne 0 ]; then
	echo "docs check FAILED"
	exit 1
fi
echo "docs check OK: package comments present, links resolve, make targets and commands exist"
