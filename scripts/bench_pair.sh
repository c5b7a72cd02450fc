#!/usr/bin/env bash
# Paired before/after benchmark runs: the protocol bench/README.md asks
# every performance claim to follow (choosing-metrics §8).
#
#   scripts/bench_pair.sh BASE [WORKLOAD] [PAIRS=10]
#
# Builds ./bench from commit BASE (a `git archive` snapshot, so neither the
# index nor the worktree list of this checkout is touched) and from the
# working tree, then for seeds 1..PAIRS and the unseen seed 4242 runs
#
#   bench -all [-workload WORKLOAD] -runs 1 -seed S
#
# on both sides, appending side BASE to A.jsonl and the working tree to
# B.jsonl under $OUT (default bench/out/pair), and finishes with
# `bench -compare A.jsonl B.jsonl`. Which side of a pair goes first is a
# coin from a fixed-seed generator, the same sequence on every invocation:
# strictly alternating A B / B A has a period of its own, which a periodic
# load on the host can lock onto and charge to one side.
# Every run is an untraced measurement plus one traced run, each in a
# process of its own, launched from its own source tree.
set -euo pipefail

base=${1:?usage: scripts/bench_pair.sh BASE [WORKLOAD] [PAIRS=10]}
workload=${2:-}
pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
out=${OUT:-$root/bench/out/pair}
mkdir -p "$out"
out=$(cd "$out" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-a" ./bench)
(cd "$root" && go build -o "$tmp/bench-b" ./bench)

: >"$out/A.jsonl"
: >"$out/B.jsonl"
args=(-all -runs 1)
if [ -n "$workload" ]; then
	args+=(-workload "$workload")
fi
side() { # side a|b seed
	local dir=$root file=B
	if [ "$1" = a ]; then
		dir=$tmp/base file=A
	fi
	(cd "$dir" && "$tmp/bench-$1" "${args[@]}" -seed "$2") >>"$out/$file.jsonl"
}

# The coin is bit 16 of a 31-bit linear congruential generator ($RANDOM's
# sequence differs between bash versions).
n=0
coin=1
for seed in $(seq 1 "$pairs") 4242; do
	coin=$(((coin * 1103515245 + 12345) & 0x7fffffff))
	order="a b"
	if [ $(((coin >> 16) & 1)) -eq 1 ]; then
		order="b a"
	fi
	n=$((n + 1))
	echo "== pair $n of $((pairs + 1)): seed $seed, order $order" >&2
	for s in $order; do
		side "$s" "$seed"
	done
done

echo "== A = $base, B = working tree; records in $out" >&2
"$tmp/bench-b" -compare "$out/A.jsonl" "$out/B.jsonl"
