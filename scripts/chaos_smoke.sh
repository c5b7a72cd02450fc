#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end check of the CLIs' robust mode, for both
# solvers: a fault-free run, then the same run under a seeded
# drop/dup/reorder plan with an injected rank crash, recovered by resuming
# from the last checkpoint. The two runs must print the same final field
# hash (bitwise crash recovery). Then the checkpoint is corrupted inside
# the last rank's slice and -resume must fail — exit non-zero, within a
# timeout — instead of hanging with one rank gone.
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
go build -o "$workdir/advect" ./cmd/advect
go build -o "$workdir/seismic" ./cmd/seismic

chaos="-fault-drop 0.2 -fault-dup 0.2 -fault-reorder 0.2 -crash-rank 1"

smoke() { # name, crash step, run arguments...
    local name=$1 crash=$2 bin="$workdir/$1"
    shift 2
    local clean chaotic
    clean=$("$bin" "$@" -checkpoint "$workdir/$name-clean" -checkpoint-every 0)
    # shellcheck disable=SC2086
    chaotic=$("$bin" "$@" -checkpoint "$workdir/$name" -checkpoint-every 2 $chaos -crash-step "$crash")
    echo "$chaotic"
    for want in "crash detected" "resumed from" "fault stats: drops="; do
        grep -q "$want" <<<"$chaotic" || { echo "$name: chaos run never printed '$want'"; exit 1; }
    done
    local h1 h2
    h1=$(grep '^final field hash' <<<"$clean")
    h2=$(grep '^final field hash' <<<"$chaotic")
    [ -n "$h1" ] && [ "$h1" = "$h2" ] || { echo "$name: fault-free '$h1' != recovered '$h2'"; exit 1; }
    echo "ok: $name recovered run matches the fault-free run ($h1)"

    # Last leaf record's level := 127: only the last rank reads it.
    local forest="$workdir/$name.forest"
    printf '\x7f\x00\x00\x00' | dd of="$forest" bs=1 seek=$(($(stat -c %s "$forest") - 4)) conv=notrunc status=none
    local rc=0
    timeout 60 "$bin" "$@" -checkpoint "$workdir/$name" -resume >"$workdir/$name-corrupt.out" 2>&1 || rc=$?
    if [ "$rc" -eq 0 ] || [ "$rc" -eq 124 ]; then
        echo "$name: -resume from a corrupt checkpoint exited $rc (0 = accepted, 124 = hung)"
        cat "$workdir/$name-corrupt.out"
        exit 1
    fi
    grep -q "level 127" "$workdir/$name-corrupt.out" || { echo "$name: unexpected failure:"; cat "$workdir/$name-corrupt.out"; exit 1; }
    echo "ok: $name refuses the corrupt checkpoint (exit $rc)"
}

smoke advect 7 -ranks 3 -steps 10 -adapt-every 2 -level 1 -max-level 2 -degree 2
smoke seismic 5 -ranks 3 -steps 6 -degree 2 -max-level 2
echo "chaos smoke passed"
