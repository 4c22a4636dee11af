#!/usr/bin/env bash
# bench.sh runs the seeker/service/ingest benchmarks with -benchmem and
# emits BENCH.json: commit + date + host metadata, every benchmark's
# ns/op, B/op, and allocs/op, the native-vs-SQL speedup for each
# *NativePath/*SQLPath pair, the multi-column seeker's native-vs-SQL
# pairing (mc_native_speedup, from BenchmarkMCNative/BenchmarkMCSQL and
# their sharded variants), the correlation seeker's native-vs-SQL pairing
# (corr_native_speedup, from BenchmarkCorrSeeker{Native,SQL}Path), the
# columnar minisql executor against its frozen row-at-a-time reference
# (minisql_columnar_speedup, from BenchmarkMinisql{Columnar,RowAtATime} —
# the headline there is the allocs ratio), the bulk-ingest speedup of the batched
# write path over the sequential AddTable loop, the cold-open speedup of
# the v4 mmap path over an eager v4 load (open_speedup), the on-disk
# size of that file (index_bytes_on_disk), and the
# snapshot-isolation headline (read_under_ingest_speedup): seek latency
# on a quiescent index vs the same seeks while a writer continuously
# publishes generations — held near 1.0 by MVCC reads never taking the
# engine lock after pinning. CI runs
# it as a
# non-blocking job (make bench), uploads the artifact, and diffs it
# against the previous main run with scripts/benchdelta.sh.
#
# The output file carries its own provenance (commit, date), so one stable
# name works across PRs; per-PR snapshots from before this scheme
# (BENCH_PR3.json, …) remain in the repo as loadable history — benchdelta
# accepts either shape.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${BENCH_OUT:-BENCH.json}
BENCHTIME=${BENCHTIME:-500x}
PATTERN='SCSeeker|KWSeeker|MCNative|MCSQL|CorrSeeker|UnionPlan|SeekerResultCache|ServeQuery|ServeSeek|BulkIngest|OpenIndexCold|MinisqlColumnar|MinisqlRowAtATime|ReadQuiescent|ConcurrentReadDuringIngest'

COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
DATE=$(date -u +%FT%TZ)
GOVER=$(go env GOVERSION 2>/dev/null || echo unknown)
CORES=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "running seeker/ingest benchmarks (-benchtime $BENCHTIME)..." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee -a "$RAW" >&2
echo "running service benchmarks..." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" ./internal/service/ | tee -a "$RAW" >&2
echo "running minisql executor ablation..." >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" ./internal/minisql/ | tee -a "$RAW" >&2

awk -v out="$OUT" -v benchtime="$BENCHTIME" -v commit="$COMMIT" -v date="$DATE" \
    -v gover="$GOVER" -v cores="$CORES" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters[name] = $2
    # Everything after the iteration count is (value, unit) pairs; custom
    # b.ReportMetric units (disk_bytes, workers) interleave with ns/op and
    # the -benchmem pair, so index by unit instead of field position.
    for (i = 3; i + 1 <= NF; i += 2) m[name "|" $(i+1)] = $i
    ns[name] = m[name "|ns/op"]
    bytes[name] = m[name "|B/op"]
    allocs[name] = m[name "|allocs/op"]
    order[n++] = name
}
END {
    printf "{\n  \"commit\": \"%s\",\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu_cores\": %s,\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", \
        commit, date, gover, cores, benchtime > out
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, iters[name], ns[name], bytes[name], allocs[name], (i < n-1 ? "," : "") >> out
    }
    printf "  ],\n  \"native_vs_sql_speedup\": {\n" >> out
    first = 1
    for (i = 0; i < n; i++) {
        name = order[i]
        if (name ~ /SQLPath$/) {
            base = name
            sub(/SQLPath$/, "NativePath", name)
            if (name in ns && ns[name] > 0) {
                if (!first) printf ",\n" >> out
                first = 0
                printf "    \"%s\": {\"sql_ns_per_op\": %s, \"native_ns_per_op\": %s, \"speedup\": %.2f, \"allocs_sql\": %s, \"allocs_native\": %s}", \
                    name, ns[base], ns[name], ns[base] / ns[name], allocs[base], allocs[name] >> out
            }
        }
    }
    printf "\n  }" >> out
    mcs = "BenchmarkMCSQL"
    mcn = "BenchmarkMCNative"
    if ((mcs in ns) && (mcn in ns) && ns[mcn] > 0) {
        # The multi-column seeker pairing: native candidate join + XASH
        # pruning + exact validation vs the interpreted Listing 2 join.
        printf ",\n  \"mc_native_speedup\": {\"sql_ns_per_op\": %s, \"native_ns_per_op\": %s, \"speedup\": %.2f, \"allocs_sql\": %s, \"allocs_native\": %s", \
            ns[mcs], ns[mcn], ns[mcs] / ns[mcn], allocs[mcs], allocs[mcn] >> out
        shs = "BenchmarkMCSQLSharded"
        shn = "BenchmarkMCNativeSharded"
        if ((shs in ns) && (shn in ns) && ns[shn] > 0)
            printf ", \"sharded_speedup\": %.2f", ns[shs] / ns[shn] >> out
        printf "}" >> out
    }
    crs = "BenchmarkCorrSeekerSQLPath"
    crn = "BenchmarkCorrSeekerNativePath"
    if ((crs in ns) && (crn in ns) && ns[crn] > 0) {
        # The correlation seeker pairing: native quadrant-fold posting
        # scan + bounded heap vs the interpreted two-way join + grouped
        # QCR aggregation.
        printf ",\n  \"corr_native_speedup\": {\"sql_ns_per_op\": %s, \"native_ns_per_op\": %s, \"speedup\": %.2f, \"allocs_sql\": %s, \"allocs_native\": %s}", \
            ns[crs], ns[crn], ns[crs] / ns[crn], allocs[crs], allocs[crn] >> out
    }
    mqr = "BenchmarkMinisqlRowAtATime"
    mqc = "BenchmarkMinisqlColumnar"
    if ((mqr in ns) && (mqc in ns) && ns[mqc] > 0 && allocs[mqc] > 0) {
        # The minisql fallback ablation: the live columnar executor vs the
        # frozen row-at-a-time reference on the seeker-shaped workload.
        # speedup is wall-clock; allocs_ratio is the headline (column
        # vectors + selection-vector joins vs per-row slices).
        printf ",\n  \"minisql_columnar_speedup\": {\"row_ns_per_op\": %s, \"columnar_ns_per_op\": %s, \"speedup\": %.2f, \"allocs_row\": %s, \"allocs_columnar\": %s, \"allocs_ratio\": %.2f}", \
            ns[mqr], ns[mqc], ns[mqr] / ns[mqc], allocs[mqr], allocs[mqc], allocs[mqr] / allocs[mqc] >> out
    }
    seqn = "BenchmarkBulkIngestSequential"
    batn = "BenchmarkBulkIngestBatch"
    if ((seqn in ns) && (batn in ns) && ns[batn] > 0) {
        # Batched shard-parallel ingest vs the sequential AddTable loop;
        # the parallel component of the speedup scales with cpu_cores.
        # workers is the effective parallelism the benchmark reported
        # (min of the flag, shard count, and GOMAXPROCS), not the flag.
        workers = (batn "|workers" in m) ? m[batn "|workers"] : "null"
        printf ",\n  \"bulk_ingest_speedup\": {\"sequential_ns_per_op\": %s, \"batch_ns_per_op\": %s, \"speedup\": %.2f, \"bytes_sequential\": %s, \"bytes_batch\": %s, \"workers\": %s, \"cpu_cores\": %s}", \
            ns[seqn], ns[batn], ns[seqn] / ns[batn], bytes[seqn], bytes[batn], workers, cores >> out
    }
    v4e = "BenchmarkOpenIndexCold/V4Eager"
    v4o = "BenchmarkOpenIndexCold/V4Mmap"
    if ((v4e in ns) && (v4o in ns) && ns[v4o] > 0) {
        # Cold time-to-queryable: eager decode of every shard vs mmap +
        # footer parse, on the same v4 file.
        printf ",\n  \"open_speedup\": {\"v4_eager_ns_per_op\": %s, \"v4_mmap_ns_per_op\": %s, \"speedup\": %.2f}", \
            ns[v4e], ns[v4o], ns[v4e] / ns[v4o] >> out
    }
    rdq = "BenchmarkReadQuiescent"
    rdi = "BenchmarkConcurrentReadDuringIngest"
    if ((rdq in ns) && (rdi in ns) && ns[rdi] > 0) {
        # Snapshot-isolation headline: parallel seeks on an idle index vs
        # the same seeks while a writer churns generations. speedup is
        # quiescent/under-ingest ns ratio — near 1.0 means readers never
        # stall behind the write path (they pin a generation snapshot and
        # run lock-free); well below 1.0 means ingestion blocks reads.
        printf ",\n  \"read_under_ingest_speedup\": {\"quiescent_ns_per_op\": %s, \"under_ingest_ns_per_op\": %s, \"speedup\": %.2f, \"allocs_quiescent\": %s, \"allocs_under_ingest\": %s}", \
            ns[rdq], ns[rdi], ns[rdq] / ns[rdi], allocs[rdq], allocs[rdi] >> out
    }
    v4b = m[v4o "|disk_bytes"]
    if (v4b > 0) {
        # On-disk size of the cold-open lake in the v4 format.
        printf ",\n  \"index_bytes_on_disk\": {\"v4_bytes\": %s}", v4b >> out
    }
    printf "\n}\n" >> out
}' "$RAW"

echo "wrote $OUT" >&2
