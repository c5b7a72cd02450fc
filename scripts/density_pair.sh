#!/usr/bin/env bash
# Before/after reading of the one-rank density row (`make fig4-density`):
# bytes per octant after each phase, peak RSS and live heap.
#
#   scripts/density_pair.sh BASE [RUNS=3]
#
# Builds ./cmd/scaling from commit BASE (a `git archive` snapshot, as
# scripts/bench_pair.sh does) and from the working tree, then runs
#
#   scaling -ranks 1 -base-level 3
#
# RUNS times on each side, alternating which side goes first, and prints
# each run's "Bytes per octant" row under the side's name. One run holds
# about 1 GB at its peak and takes half a minute or more on 2 vCPUs; run
# nothing else meanwhile.
set -euo pipefail

base=${1:?usage: scripts/density_pair.sh BASE [RUNS=3]}
runs=${2:-3}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/scaling-a" ./cmd/scaling)
(cd "$root" && go build -o "$tmp/scaling-b" ./cmd/scaling)

side() { # side a|b
	local name="working tree"
	if [ "$1" = a ]; then
		name=$base
	fi
	local row
	row=$("$tmp/scaling-$1" -ranks 1 -base-level 3 | grep -A1 '^Bytes per octant' | tail -1)
	printf '%-14s %s\n' "$name" "${row#*ranks      1:}" >>"$tmp/$1.txt"
}

: >"$tmp/a.txt"
: >"$tmp/b.txt"
for i in $(seq 1 "$runs"); do
	order="a b"
	if [ $((i % 2)) -eq 0 ]; then
		order="b a"
	fi
	echo "== run $i of $runs, order $order" >&2
	for s in $order; do
		side "$s"
	done
done

echo "Bytes per octant after each phase (peak RSS so far / live heap after a GC), one rank, level 3:"
cat "$tmp/a.txt" "$tmp/b.txt"
