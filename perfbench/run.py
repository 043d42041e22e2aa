#!/usr/bin/env python3
"""Builds and runs the DVMS benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: brush_scatter, crossfilter_brush, durable_ingest (see
perfbench/README.md). The engine (src/) and the load generator
(perfbench/src/) are built in Release into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The load generator's report is
passed through; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is 0 when
every correctness check passed, 1 when one failed, and 2 or more when the
benchmark could not run at all (then no result line is printed).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("brush_scatter", "crossfilter_brush", "durable_ingest")
# A run is ROUNDS load-generator processes of seconds/ROUNDS each: timings
# on a shared host differ more between processes than within one, so the
# run pools several.
ROUNDS = 6
ROUND_TIMEOUT_S = 100
# Per-layer metrics that count a whole run rather than one op.
SUMMED = {"trace.ops", "trace.spans_dropped", "durability.snapshot_writes"}


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the engine and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir, env):
    """Configures once, then builds incrementally. Returns the binary path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, env=env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=840)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(3, f"build step {' '.join(step)} did not finish: {e}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(3, f"build failed (log: {log_path})")
    binary = os.path.join(build_dir, "dvms_perfbench")
    if not os.path.exists(binary):
        fail(3, f"build produced no {binary}")
    return binary


def quantile(values, q):
    """Linear-interpolated quantile, as the load generator computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def run_round(binary, env, args, seed, seconds, tmp_dir, serial_replay):
    """One load-generator process. Returns (report lines, samples, result)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--tmp-dir", tmp_dir,
           "--serial-replay", "1" if serial_replay else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"round with seed {seed} did not finish within {ROUND_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert done.returncode in (0, 1)
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(done.stdout)
        fail(5, f"the load generator exited {done.returncode} without a result line")
    samples = []
    report = []
    for line in lines[:-1]:
        if line.startswith("samples:"):
            samples = [float(x) for x in line.split()[1:]]
        else:
            report.append(line)
    return report, samples, result


def aggregate(rounds, trace):
    """Pools the rounds: latency percentiles over all rounds' samples,
    medians of per-process figures, and per-layer means (sums for counts
    of a whole run)."""
    metrics = {}
    if not trace:
        samples = [ms for _, round_samples, _ in rounds for ms in round_samples]
        if not samples:
            fail(5, "no op completed")
        per = lambda name: statistics.median(r["metrics"][name]["value"] for _, _, r in rounds)
        metrics["op_p50_ms"] = (quantile(samples, 0.50), "ms")
        metrics["op_p95_ms"] = (quantile(samples, 0.95), "ms")
        metrics["ops_per_s"] = (len(samples) / (sum(samples) / 1000.0), "1/s")
        metrics["setup_s"] = (per("setup_s"), "s")
        metrics["peak_rss_mb"] = (per("peak_rss_mb"), "MiB")
        return metrics, len(samples)
    for name, m in rounds[0][2]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, _, r in rounds]
        combine = sum if name in SUMMED else statistics.fmean
        metrics[name] = (combine(values), m["unit"])
    return metrics, 0


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills the running
    # child before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no engine sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # The engine reads DVMS_* variables (threads, faults, tracing, data
    # directory); none may leak in from the caller's environment. Scratch
    # files of the compiler and the durable workload stay in the build
    # directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DVMS_")}
    env["TMPDIR"] = tmp_dir
    binary = build(build_dir, env)

    rounds = []
    for k in range(ROUNDS):
        seed = args.seed * 1000 + k
        # brush_scatter's serial replay costs more than the round itself,
        # so only the last round makes it.
        report, samples, result = run_round(binary, env, args, seed, args.seconds / ROUNDS,
                                            tmp_dir, k == ROUNDS - 1)
        for line in report:
            print(f"round {k + 1}/{ROUNDS}: {line}")
        rounds.append((report, samples, result))

    metrics, pooled = aggregate(rounds, args.trace == 1)
    attempted = sum(r["attempted"] for _, _, r in rounds)
    failed = sum(r["failed"] for _, _, r in rounds)
    correct = all(r["correct"] for _, _, r in rounds)
    print(f"run: workload {args.workload}, seed {args.seed}, {ROUNDS} processes of "
          f"{args.seconds / ROUNDS:g} s, trace {args.trace}")
    if pooled:
        print(f"run: {pooled} op latency samples pooled over {ROUNDS} processes")
    print(f"run: public calls {attempted} attempted, {failed} failed, failed_ops_pct "
          f"{100.0 * failed / max(attempted, 1):.4f} %, checks {'passed' if correct else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"run: {name:34s} {value:14.4f} {unit}")
    print(f"context: commit {git_commit()}, source sha256 {source_digest()}, "
          f"build Release, binary {os.path.relpath(binary, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
