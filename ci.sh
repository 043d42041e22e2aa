#!/usr/bin/env bash
# Tier-1 CI: Release build + full test suite, the serial-vs-parallel
# benchmark comparison (emitted as BENCH_parallel.json), the undo-log /
# chaos-survival comparison (BENCH_faults.json), a ThreadSanitizer build
# re-running every test with 4 morsel workers, and an ASan+UBSan leg
# running the chaos/fuzz suites under heavy fault injection.
set -euo pipefail
cd "$(dirname "$0")"
JOBS="${JOBS:-$(nproc)}"

# Leg 1: Release build + tests. The chaos / crash-injection suites carry
# the `slow` ctest label; `ctest -LE slow` is the fast local loop, CI runs
# everything.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Serial vs 4-thread latency on the Figure 1 / Figure 2 workloads. Each
# bench appends JSON object lines; wrap them into one JSON array.
# --benchmark_filter=__none__ skips the google-benchmark loops — the
# comparison sections run unconditionally before them.
BENCH_LINES="$PWD/build/bench_lines.jsonl"
rm -f "$BENCH_LINES"
DVMS_BENCH_JSON="$BENCH_LINES" ./build/bench/bench_fig1_crossfilter \
  --benchmark_filter=__none__
DVMS_BENCH_JSON="$BENCH_LINES" ./build/bench/bench_fig2_brushing \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$BENCH_LINES"
  printf ']\n'
} > BENCH_parallel.json
echo "wrote BENCH_parallel.json:"
cat BENCH_parallel.json

# Columnar kernels vs the row interpreter on the Figure 1 chart queries
# and the Figure 2 brushing plans, plus the snapshot-size comparison. Gates: bit-identical results with a
# >= 2x vectorized speedup, and the columnar snapshot encoding must be
# smaller than the legacy row format (every line carries a "pass" field).
COLUMNAR_LINES="$PWD/build/bench_columnar_lines.jsonl"
rm -f "$COLUMNAR_LINES"
DVMS_BENCH_JSON="$COLUMNAR_LINES" ./build/bench/bench_columnar \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$COLUMNAR_LINES"
  printf ']\n'
} > BENCH_columnar.json
echo "wrote BENCH_columnar.json:"
cat BENCH_columnar.json
if grep -q '"pass": false' BENCH_columnar.json; then
  echo "columnar speedup or snapshot-size gate failed" >&2; exit 1
fi

# Undo-log overhead (< 10% budget on the fault-free fig2 workload) and
# chaos survival under injected faults.
FAULT_LINES="$PWD/build/bench_fault_lines.jsonl"
rm -f "$FAULT_LINES"
DVMS_BENCH_JSON="$FAULT_LINES" ./build/bench/bench_faults \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$FAULT_LINES"
  printf ']\n'
} > BENCH_faults.json
echo "wrote BENCH_faults.json:"
cat BENCH_faults.json

# Interaction-log throughput per DVMS_WAL_FSYNC group-commit mode and
# cold-start recovery time (log replay vs snapshot + suffix).
RECOVERY_LINES="$PWD/build/bench_recovery_lines.jsonl"
rm -f "$RECOVERY_LINES"
DVMS_BENCH_JSON="$RECOVERY_LINES" ./build/bench/bench_recovery \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$RECOVERY_LINES"
  printf ']\n'
} > BENCH_recovery.json
echo "wrote BENCH_recovery.json:"
cat BENCH_recovery.json

# Observability overhead: the tracing-disabled guard must bound under 2%
# of the fig2 brushing workload (the "pass" field in BENCH_obs.json).
OBS_LINES="$PWD/build/bench_obs_lines.jsonl"
rm -f "$OBS_LINES"
DVMS_BENCH_JSON="$OBS_LINES" ./build/bench/bench_obs \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$OBS_LINES"
  printf ']\n'
} > BENCH_obs.json
echo "wrote BENCH_obs.json:"
cat BENCH_obs.json
grep -q '"pass": true' BENCH_obs.json || {
  echo "observability overhead budget exceeded" >&2; exit 1; }

# Resource-governor overhead: an armed-but-untriggered governor (deadline
# + memory budget with roomy limits) must stay under 2% of the unarmed
# engine on the fig2 workload; the same binary reports deadline-abort
# latency and the abort/rollback exercise.
GOV_LINES="$PWD/build/bench_governor_lines.jsonl"
rm -f "$GOV_LINES"
DVMS_BENCH_JSON="$GOV_LINES" ./build/bench/bench_governor \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$GOV_LINES"
  printf ']\n'
} > BENCH_governor.json
echo "wrote BENCH_governor.json:"
cat BENCH_governor.json
grep -q '"pass": true' BENCH_governor.json || {
  echo "governor overhead budget exceeded" >&2; exit 1; }

# Concurrent-session read throughput: serial vs 2/4/8 reader sessions and
# reads under a continuous writer. The gate is 1-core-safe: the best
# concurrent throughput must be >= 85% of serial (no-regression), with the
# scalability shape recorded per thread count.
SESS_LINES="$PWD/build/bench_sessions_lines.jsonl"
rm -f "$SESS_LINES"
DVMS_BENCH_JSON="$SESS_LINES" ./build/bench/bench_sessions \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$SESS_LINES"
  printf ']\n'
} > BENCH_sessions.json
echo "wrote BENCH_sessions.json:"
cat BENCH_sessions.json
if grep -q '"pass": false' BENCH_sessions.json; then
  echo "concurrent session reads regressed below serial" >&2; exit 1
fi

# Replication: tail-apply throughput + steady-state lag, failover promotion
# time, and tailing under injected replication faults. Gates are
# 1-core-safe: the replica must converge to the primary's final LSN (zero
# lag after quiesce), promotion must yield a writable engine, and faults
# may only slow the tail, never break convergence.
REPL_LINES="$PWD/build/bench_replication_lines.jsonl"
rm -f "$REPL_LINES"
DVMS_BENCH_JSON="$REPL_LINES" ./build/bench/bench_replication \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$REPL_LINES"
  printf ']\n'
} > BENCH_replication.json
echo "wrote BENCH_replication.json:"
cat BENCH_replication.json
if grep -q '"pass": false' BENCH_replication.json; then
  echo "replication diverged, stalled, or failed to promote" >&2; exit 1
fi

# Integrity-scrubber cost: a 20ms background scrub cadence must stay under
# 2% of the scrubber-off durable workload ("pass" in BENCH_scrub.json);
# the same binary records per-pass latency and a detection/quarantine
# smoke on a flipped byte in a sealed segment.
SCRUB_LINES="$PWD/build/bench_scrub_lines.jsonl"
rm -f "$SCRUB_LINES"
DVMS_BENCH_JSON="$SCRUB_LINES" ./build/bench/bench_scrub \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$SCRUB_LINES"
  printf ']\n'
} > BENCH_scrub.json
echo "wrote BENCH_scrub.json:"
cat BENCH_scrub.json
if grep -q '"pass": false' BENCH_scrub.json; then
  echo "scrubber overhead budget exceeded or detection failed" >&2; exit 1
fi

# Cluster routing: the healthy routed-read path must stay within 5% of
# direct engine reads, a mid-stream primary kill must lose zero
# acknowledged commits (the blackout window is recorded), and hedged-read
# accounting must balance exactly (won + lost == launched).
CLUSTER_LINES="$PWD/build/bench_cluster_lines.jsonl"
rm -f "$CLUSTER_LINES"
DVMS_BENCH_JSON="$CLUSTER_LINES" ./build/bench/bench_cluster \
  --benchmark_filter=__none__
{
  printf '[\n'
  sed -e 's/^/  /' -e '$!s/$/,/' "$CLUSTER_LINES"
  printf ']\n'
} > BENCH_cluster.json
echo "wrote BENCH_cluster.json:"
cat BENCH_cluster.json
if grep -q '"pass": false' BENCH_cluster.json; then
  echo "cluster routing overhead, failover, or hedge accounting regressed" >&2
  exit 1
fi

# Env-fault chaos sweep: seeded disk-fault injection (DVMS_IO_FAULTS)
# driven through the storage Env layer over the durability and replication
# workloads. Injected EIO/ENOSPC/short-write/fsync-fail may fail
# individual operations or degrade the engine to read-only — never crash
# the process. Recovery, rollback, and replica-apply paths run
# fault-exempt by design, so every run must terminate cleanly.
for seed in 1 2 3; do
  DVMS_IO_FAULTS="${seed}:0.005" ./build/bench/bench_recovery \
    --benchmark_filter=__none__ >/dev/null
  DVMS_IO_FAULTS="${seed}:0.01:write,fsync" ./build/bench/bench_replication \
    --benchmark_filter=__none__ >/dev/null
  DVMS_IO_FAULTS="${seed}:0.02" ./build/bench/bench_scrub \
    --benchmark_filter=__none__ >/dev/null
  # Routed writes under seeded disk faults: retries, degraded-mode
  # backoff, breaker trips, poisoned-primary condemnation, and failover
  # all fire along this leg — the process must still terminate cleanly.
  DVMS_IO_FAULTS="${seed}:0.01:write,fsync" ./build/bench/bench_cluster \
    --benchmark_filter=__none__ >/dev/null
done
echo "env-fault chaos sweep passed"

# Leg 2: ThreadSanitizer build; DVMS_THREADS=4 forces real morsel
# parallelism through every test regardless of host core count — including
# the linearizability stress harness (1/2/4/8 reader sessions racing the
# writer) and the session/snapshot-isolation suites, which is where reader
# concurrency races would surface.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDVMS_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && DVMS_THREADS=4 ctest --output-on-failure -j "$JOBS")

# Leg 3: AddressSanitizer + UndefinedBehaviorSanitizer chaos leg — the
# chaos differential, crash-injection/recovery, durability codec,
# scheduler-degradation, observability/EXPLAIN, fuzz and parallel-stress
# suites (the latter's analyst thread reads lock-free beside writers), then
# the fault workload driven by a process-wide DVMS_FAULTS spec: any leak,
# UB, or use-after-rollback in the recovery paths fails the build.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDVMS_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS" \
  -R 'Chaos|Fault|Scheduler|Fuzz|UndoRedoBoundary|Crash|Durability|Recovery|Wal|Snapshot|Crc32c|Obs|Explain|Governor|QueryContext|Admission|Linearizability|Session|Replication|Replica|Env|Scrub|Degraded|Columnar|Vectorized|Cluster|ParallelStress')
DVMS_FAULTS="7:0.01" ./build-asan/bench/bench_faults \
  --benchmark_filter=__none__ >/dev/null && echo "asan chaos leg passed"
# Governed-abort leg: deadline/cancel/memory-budget aborts and their
# rollbacks must be leak- and UB-free; DVMS_DEADLINE_MS additionally
# drives real deadline aborts through the env-resolved config path.
DVMS_DEADLINE_MS=50 ./build-asan/bench/bench_governor \
  --benchmark_filter=__none__ >/dev/null && echo "asan governor leg passed"
# EXPLAIN ANALYZE + dvms_metrics smoke with tracing force-enabled: the
# traced hot paths (registry, span ring, system-relation refresh) must be
# clean under ASan/UBSan too.
DVMS_TRACE=1 ./build-asan/bench/bench_obs \
  --benchmark_filter=__none__ >/dev/null && echo "asan obs smoke passed"

echo "ci.sh: all legs passed"
