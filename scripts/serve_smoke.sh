#!/usr/bin/env bash
# serve_smoke.sh — end-to-end check of the simulation service: start
# cmd/serve on an ephemeral port, drive a mixed job load through
# cmd/loadgen (admission control must engage, nothing may be dropped),
# scrape /metrics and /healthz for the scheduler series, then send
# SIGTERM and assert the graceful drain completes.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/serve" ./cmd/serve
go build -o "$workdir/loadgen" ./cmd/loadgen

"$workdir/serve" -addr 127.0.0.1:0 -data "$workdir/jobs" -max-active 2 -max-queue 8 \
    >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# The server prints the actual bound address once the listener is up.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^serve: listening on ##p' "$workdir/stdout" | awk '{print $1}' | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve exited early:"; cat "$workdir/stderr"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "serve address never appeared"; cat "$workdir/stdout"; exit 1; }
echo "serve endpoint: $addr"

# Mixed load: more clients than active slots, so the bounded queue (and
# 429 backoff) must engage; loadgen exits nonzero if any job fails.
"$workdir/loadgen" -url "http://$addr" -jobs 24 -concurrency 12 -json "$workdir/load.json"
grep -q '"jobs_per_sec"' "$workdir/load.json" || { echo "load.json lacks throughput"; exit 1; }
echo "ok: loadgen"

# fetch runs curl with the given arguments and leaves the response in
# $body. Bodies are captured whole and grepped afterwards: piping curl into
# `grep -q` lets grep exit at the first match, and under pipefail curl's
# broken-pipe exit 23 would then fail a check that actually passed.
fetch() {
    local rc=0
    body=$(curl -sf "$@") || rc=$?
    [ "$rc" -eq 0 ] || { echo "curl $* failed: exit $rc"; exit 1; }
}

# A single job end to end over the raw API: submit, follow SSE to the
# terminal event, fetch an artifact.
fetch "http://$addr/jobs" -d '{"type":"advect","ranks":2,"steps":3,"vtk_every":3,"tag":"smoke"}'
id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' <<<"$body")
[ -n "$id" ] || { echo "submit returned no id: $body"; exit 1; }
fetch -N --max-time 120 "http://$addr/jobs/$id/events"
grep -q '"state":"done"' <<<"$body" || { echo "job $id never reached done"; exit 1; }
fetch "http://$addr/jobs/$id/files/manifest.json"
grep -q '"command": "serve/advect"' <<<"$body" || { echo "job manifest missing: $body"; exit 1; }
grep -q '"name": "phase_' <<<"$body" || { echo "job manifest has no phase summaries: $body"; exit 1; }
echo "ok: job $id done, manifest served"

fetch "http://$addr/metrics"
metrics=$body
check() {
    if ! grep -q "$1" <<<"$metrics"; then
        echo "MISSING from /metrics: $1"
        head -40 <<<"$metrics"
        exit 1
    fi
    echo "ok: $1"
}
check 'amr_jobs_submitted_total'
check 'amr_jobs_completed_total'
check 'amr_job_queue_wait_seconds{quantile='
check 'amr_job_latency_seconds{quantile='
fetch "http://$addr/healthz"
grep -q '"status": "ok"' <<<"$body" || { echo "healthz not ok: $body"; exit 1; }
echo "ok: /healthz"

# Graceful shutdown: SIGTERM drains in-flight work and exits 0.
kill -TERM "$pid"
wait "$pid" || { echo "serve exited nonzero on drain"; cat "$workdir/stderr"; exit 1; }
grep -q 'drained, bye' "$workdir/stdout" || { echo "drain never completed"; cat "$workdir/stdout"; exit 1; }
echo "ok: graceful drain"

echo "serve smoke passed"
