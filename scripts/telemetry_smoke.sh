#!/usr/bin/env bash
# telemetry_smoke.sh — end-to-end check of the live telemetry endpoint:
# start cmd/advect with -telemetry on an ephemeral port, scrape /metrics
# and /healthz while the run is in flight, and assert the key series are
# present (per-phase histogram quantiles, mpi counters, per-rank health).
# Also checks the exit-time manifest.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go run ./cmd/advect -ranks 4 -steps 60 -adapt-every 8 \
    -telemetry 127.0.0.1:0 -manifest "$workdir/manifest.json" \
    >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# The driver prints the actual bound address on stderr once the listener
# is up; poll for it.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^telemetry: serving .* on http://##p' "$workdir/stderr" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "advect exited early:"; cat "$workdir/stderr"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "telemetry address never appeared"; cat "$workdir/stderr"; exit 1; }
echo "telemetry endpoint: $addr"

# Scrape mid-run: wait until the first solver steps have been recorded.
metrics=""
for _ in $(seq 1 150); do
    metrics=$(curl -sf "http://$addr/metrics" || true)
    if echo "$metrics" | grep -q 'amr_steps_total' &&
        echo "$metrics" | grep -q 'amr_phase_solve_seconds{quantile="0.95"}'; then
        break
    fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
done

check() {
    if ! echo "$metrics" | grep -q "$1"; then
        echo "MISSING from /metrics: $1"
        echo "$metrics" | head -40
        exit 1
    fi
    echo "ok: $1"
}

# Per-phase histogram quantiles read from the tracer's span aggregates
# (the solver's RHS and step are spans too), mpi message/byte counters —
# the series the acceptance criteria name.
check 'amr_phase_solve_seconds{quantile="0.5"}'
check 'amr_phase_solve_seconds{quantile="0.99"}'
check 'amr_phase_rhs_seconds{quantile='
check 'amr_phase_solve_seconds_count'
check 'amr_mpi_msgs_sent_total{rank="0"}'
check 'amr_mpi_bytes_sent_total'
check 'amr_mpi_recv_wait_seconds'
check 'amr_steps_total{rank="3"}'

health=$(curl -sf "http://$addr/healthz")
echo "$health" | grep -q '"status": "ok"' || { echo "healthz not ok: $health"; exit 1; }
echo "$health" | grep -q '"ranks": 4' || { echo "healthz ranks wrong: $health"; exit 1; }
echo "ok: /healthz"

curl -sf "http://$addr/debug/pprof/" >/dev/null || { echo "pprof not mounted"; exit 1; }
echo "ok: /debug/pprof/"

wait "$pid"

# Manifest written at exit: its phases summarise the solver's solve and
# rhs spans, and the retired benchmark-entry array is gone.
[ -s "$workdir/manifest.json" ] || { echo "manifest missing"; exit 1; }
for phase in phase_solve phase_rhs; do
    grep -q "\"name\": \"$phase\"" "$workdir/manifest.json" \
        || { echo "manifest phases lack $phase"; cat "$workdir/manifest.json"; exit 1; }
done
if grep -q '"benchmarks"' "$workdir/manifest.json"; then
    echo "manifest still has a benchmarks key"
    exit 1
fi
echo "ok: manifest"

echo "telemetry smoke passed"
