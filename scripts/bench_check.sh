#!/bin/sh
# bench_check.sh — benchmark-regression gate (used by CI).
#
# Runs the benchmark suite into a temp snapshot and compares the gated hot
# paths — BenchmarkSimulatorFrame (one steady-state OO-VR frame),
# BenchmarkServiceTick (one steady-state serving-simulator step),
# BenchmarkTSLGrouping (the middleware batching pass) and the two
# BenchmarkFabricReserve variants (interconnect reservation, fullmesh and
# switch) — against the newest checked-in BENCH_*.json baseline. Every gate
# is evaluated before the script exits, so one run reports the complete
# failure list (summarized on the last line) rather than the first broken
# gate; the exit status is non-zero when any gated benchmark is more than
# MAX_SLOWDOWN_PCT percent slower. A gated benchmark absent from an older
# baseline is skipped with a note (refresh the snapshot with
# scripts/bench.sh to arm it).
#
# The frame and service-tick benchmarks are additionally gated on heap
# traffic: their steady-state loops must stay at MAX_FRAME_ALLOCS
# allocations per op (default 0 — the incremental caches and presized event
# queues make both hot paths allocation-free, and this gate keeps it that
# way).
#
# The cold path is gated on bytes: BenchmarkSimulatorColdStart (scene
# generation, system construction, one cache-cold frame) may allocate at
# most 10% more bytes per op than the baseline snapshot records, so the
# sparse flow-cache slots cannot quietly regrow into dense per-segment
# slot arrays.
#
# Usage: scripts/bench_check.sh [benchtime]   (default 1s; duration-based
#        so the nanosecond-scale gated benchmarks get enough iterations
#        for a stable ns/op — an iteration-count benchtime like 3x makes
#        them pure timer noise)
# Env:   BASELINE=path   override baseline selection
#        MAX_SLOWDOWN_PCT=N   regression threshold (default 20)
#        MAX_FRAME_ALLOCS=N   allocs/op budget for the gated loops (default 0)
set -eu

cd "$(dirname "$0")/.."
benchtime="${1:-1s}"
threshold="${MAX_SLOWDOWN_PCT:-20}"

baseline="${BASELINE:-$(ls BENCH_*.json | sort | tail -n 1)}"
if [ ! -f "$baseline" ]; then
    echo "bench_check: no BENCH_*.json baseline found" >&2
    exit 2
fi

fresh=$(mktemp /tmp/bench_fresh.XXXXXX.json)
trap 'rm -f "$fresh"' EXIT
OUT="$fresh" scripts/bench.sh "$benchtime" > /dev/null

extract() {
    # Pull a benchmark's ns_per_op out of a snapshot without depending on
    # jq. $1 = benchmark name (may contain a sub-benchmark slash), $2 = file.
    sed -n 's|.*"'"$1"'", "ns_per_op": \([0-9.e+]*\).*|\1|p' "$2"
}

extract_metric() {
    # Pull any metric off a benchmark's snapshot line. $1 = benchmark name,
    # $2 = metric key, $3 = file.
    sed -n 's|.*"name": "'"$1"'",.*"'"$2"'": \([0-9.e+]*\).*|\1|p' "$3"
}

status=0
failed=""

note_failure() {
    # $1 = exit status of the gate, $2 = gate label. Accumulates the
    # summary line so every broken gate is visible from one run.
    if [ "$1" -ne 0 ]; then
        [ "$1" -gt "$status" ] && status="$1"
        failed="$failed $2"
    fi
}

for bench in BenchmarkSimulatorFrame \
             BenchmarkServiceTick \
             BenchmarkTSLGrouping \
             BenchmarkFabricReserve/fullmesh \
             BenchmarkFabricReserve/switch; do
    base_ns=$(extract "$bench" "$baseline")
    new_ns=$(extract "$bench" "$fresh")
    if [ -z "$new_ns" ]; then
        echo "bench_check: $bench missing from the fresh run" >&2
        note_failure 2 "$bench(missing)"
        continue
    fi
    if [ -z "$base_ns" ]; then
        echo "$bench: not in $baseline, skipped (refresh with scripts/bench.sh)"
        continue
    fi
    awk -v base="$base_ns" -v new="$new_ns" -v pct="$threshold" \
        -v from="$baseline" -v name="$bench" 'BEGIN {
        change = (new - base) / base * 100
        printf "%s: %.0f ns/op vs %.0f ns/op in %s (%+.1f%%)\n", name, new, base, from, change
        if (change > pct) {
            printf "FAIL: %s regressed more than %g%%\n", name, pct
            exit 1
        }
    }' || note_failure 1 "$bench"
done

# Heap-traffic gates: the steady-state frame and service-tick loops must
# not allocate.
max_allocs="${MAX_FRAME_ALLOCS:-0}"
for bench in BenchmarkSimulatorFrame BenchmarkServiceTick; do
    allocs=$(extract_metric "$bench" allocs_per_op "$fresh")
    if [ -z "$allocs" ]; then
        echo "bench_check: $bench allocs_per_op missing from the fresh run" >&2
        note_failure 2 "$bench(allocs-missing)"
        continue
    fi
    awk -v allocs="$allocs" -v max="$max_allocs" -v name="$bench" 'BEGIN {
        printf "%s: %g allocs/op (budget %g)\n", name, allocs, max
        if (allocs > max) {
            printf "FAIL: %s allocates (%g allocs/op > %g)\n", name, allocs, max
            exit 1
        }
    }' || note_failure 1 "$bench(allocs)"
done

# Cold-path heap gate: bytes/op within 10% of the baseline snapshot.
bench=BenchmarkSimulatorColdStart
base_bytes=$(extract_metric "$bench" bytes_per_op "$baseline")
new_bytes=$(extract_metric "$bench" bytes_per_op "$fresh")
if [ -z "$new_bytes" ]; then
    echo "bench_check: $bench bytes_per_op missing from the fresh run" >&2
    note_failure 2 "$bench(bytes-missing)"
elif [ -z "$base_bytes" ]; then
    echo "$bench bytes/op: not in $baseline, skipped (refresh with scripts/bench.sh)"
else
    awk -v base="$base_bytes" -v new="$new_bytes" -v from="$baseline" -v name="$bench" 'BEGIN {
        ceiling = base * 1.10
        printf "%s: %.0f B/op (ceiling %.0f = %s + 10%%)\n", name, new, ceiling, from
        if (new > ceiling) {
            printf "FAIL: %s allocates more than %.0f B/op\n", name, ceiling
            exit 1
        }
    }' || note_failure 1 "$bench(bytes)"
fi

if [ "$status" -eq 0 ]; then
    echo "OK: within the regression budget"
else
    echo "FAILED gates:$failed"
fi
exit "$status"
