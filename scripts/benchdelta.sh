#!/usr/bin/env bash
# benchdelta.sh OLD.json NEW.json — print a benchstat-style markdown table
# comparing two bench reports produced by scripts/bench.sh. It reads both
# the current BENCH.json shape (with commit/date metadata) and the legacy
# per-PR snapshots (BENCH_PR3.json), whose "benchmarks" arrays are
# identical. Intended for the CI job summary; always exits 0 so the bench
# job stays non-blocking.
set -uo pipefail

old=${1:-}
new=${2:-}
if [ -z "$old" ] || [ -z "$new" ] || [ ! -f "$old" ] || [ ! -f "$new" ]; then
    echo "_no previous bench report to compare against_"
    exit 0
fi
if ! command -v jq >/dev/null 2>&1; then
    echo "_jq not available; skipping bench delta_"
    exit 0
fi

meta() { # file field
    jq -r ".$2 // \"?\"" "$1" 2>/dev/null || echo "?"
}

echo "### Benchmark delta"
echo
echo "Old: \`$(meta "$old" commit)\` ($(meta "$old" date)) → New: \`$(meta "$new" commit)\` ($(meta "$new" date))"
echo
echo "| benchmark | old ns/op | new ns/op | delta | old allocs | new allocs |"
echo "|---|---:|---:|---:|---:|---:|"

# Join the two benchmark arrays by name; report only names present in both.
jq -rn --slurpfile o "$old" --slurpfile n "$new" '
    ($o[0].benchmarks // [] | map({(.name): .}) | add // {}) as $old
    | ($n[0].benchmarks // [])[]
    | . as $new
    | $old[$new.name] // empty
    | [ $new.name,
        .ns_per_op,
        $new.ns_per_op,
        (if .ns_per_op > 0
            then ((($new.ns_per_op - .ns_per_op) / .ns_per_op * 100 * 10 | round) / 10 | tostring) + "%"
            else "?" end),
        .allocs_per_op,
        $new.allocs_per_op ]
    | "| " + (map(tostring) | join(" | ")) + " |"
' 2>/dev/null || echo "_failed to parse bench reports_"

echo

# Headline derived metrics: correlation fast-path and columnar-executor
# speedups, cold-open speedup, on-disk index size, and read-under-ingest
# isolation, old vs new (reports predating these fields show "n/a").
jq -rn --slurpfile o "$old" --slurpfile n "$new" '
    def x(v): if v == null then "n/a" else (v | tostring) + "x" end;
    def fmt(v): if v == null then "n/a" else (v | tostring) end;
    "Correlation native vs SQL: old speedup "
        + x($o[0].corr_native_speedup.speedup) + " → new speedup "
        + x($n[0].corr_native_speedup.speedup),
    "Minisql columnar vs row-at-a-time: old allocs ratio "
        + x($o[0].minisql_columnar_speedup.allocs_ratio) + " → new allocs ratio "
        + x($n[0].minisql_columnar_speedup.allocs_ratio) + " (wall-clock "
        + x($n[0].minisql_columnar_speedup.speedup) + ")",
    "Cold open (v4 mmap vs v4 eager): old speedup "
        + x($o[0].open_speedup.speedup) + " → new speedup "
        + x($n[0].open_speedup.speedup),
    "On-disk size (v4 bytes): old "
        + fmt($o[0].index_bytes_on_disk.v4_bytes) + " → new "
        + fmt($n[0].index_bytes_on_disk.v4_bytes),
    "Read under ingest (quiescent/under-ingest, 1.0 = no reader stall): old "
        + x($o[0].read_under_ingest_speedup.speedup) + " → new "
        + x($n[0].read_under_ingest_speedup.speedup) + " ("
        + fmt($n[0].read_under_ingest_speedup.under_ingest_ns_per_op)
        + " ns/op under ingest)"
' 2>/dev/null || echo "_no open/size metrics to compare_"

echo
echo "_delta = (new − old) / old; negative is faster. Non-blocking: noisy runners make small deltas meaningless._"
exit 0
