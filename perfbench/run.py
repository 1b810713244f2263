#!/usr/bin/env python3
"""aeromesh benchmark: time to a validated mesh on four workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness and aeromeshd from source under .bench_build/ (or
$CARGO_TARGET_DIR), runs one workload in a private temporary directory and
prints, as its last line, one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced run.
The exit code is 0 only when every output passed its correctness checks and
the result line matched BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("highlift-seq", "highlift-pool2", "bl-dense", "service-mix")
# An untraced run is split into legs, each a fresh process (and, for
# service-mix, a fresh daemon) that sets up and then measures its share of
# the run; samples are pooled over the legs and set-up is the median leg.
# Job times cluster by process on a shared VM, so spreading one run over
# several processes steadies its medians.
LEGS = 3
# Per-layer metrics whose layer does no work in a workload (or is not
# visible from the harness there); they are reported as 0.
NOT_MEASURED = {
    "highlift-seq": ("runtime.", "service."),
    "bl-dense": ("runtime.", "service."),
    "highlift-pool2": ("hull.", "core.bl_assemble_s", "core.restrict_s",
                       "core.weld_s", "inviscid.", "service."),
    "service-mix": ("blayer.", "hull.", "core.", "inviscid.", "io.",
                    "runtime."),
}
RUN_LIMIT_S = 170.0


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.stderr.flush()


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds the harness and aeromeshd (no-op when fresh)."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=300)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                        "perfbench_harness", "aeromeshd"],
                       stdout=sys.stderr, check=True, timeout=840)
    return (os.path.join(out, "perfbench_harness"),
            os.path.join(out, "aeromesh", "src", "service", "aeromeshd"))


def stop_group(pgid):
    """Kills what is left of a harness's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    raise RuntimeError("processes of group %d did not end" % pgid)


def run_harness(cmd, cwd, deadline):
    """Runs one harness process in its own process group; returns its parsed
    result and the stdout lines before it."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_group(proc.pid)  # the harness's daemon, should it outlive it
    lines = out.splitlines()
    # Exit 1 with a result line means failed checks, which the result shows.
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError("harness exited %d without a result" %
                           proc.returncode)
    return json.loads(lines[-1]), lines[:-1]


def nearest_rank(values, p):
    """Smallest sample with at least a share p of the samples at or below
    it, and how many samples lie above it."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def pool_legs(workload, results):
    """End-to-end metrics of an untraced run from its legs' raw results."""
    jobs = [x for r in results for x in r["samples"]["job_s"]]
    latency = [x for r in results for x in r["samples"]["latency_ms"]]
    setups = [r["metrics"]["setup_s"] for r in results]
    p99, beyond = nearest_rank(latency, 0.99)
    if beyond < 10:
        # Too few samples (the mesh workloads' handful of jobs) for any
        # percentile above the median to have ten samples beyond it: the
        # tail is not resolvable, so report the median instead of the max.
        p99 = statistics.median(latency)
    print("%s: %d legs; set-up s: %s; %d %s (median of %d job times), "
          "%d samples beyond nearest-rank p99" % (
              workload, len(results), " ".join("%.3f" % s for s in setups),
              len(latency),
              "requests" if workload == "service-mix" else "jobs",
              len(jobs), beyond))
    if workload != "service-mix":
        print("job s: " + " ".join("%.3f" % s for s in jobs))
    return {
        "job_s": statistics.median(jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            x for r in results for x in r["samples"]["peak_rss_mb"]),
        "requests_per_s": sum(r["metrics"]["ok"] for r in results) /
                          sum(r["metrics"]["measured_s"] for r in results),
        "req_p50_ms": statistics.median(latency),
        "req_p99_ms": p99,
    }


def self_check(result, expected, spec):
    """The result line must match BENCHMARK.json: every named metric present,
    finite and in its unit, nothing else, and sane tallies."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys %s" % sorted(result))
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a bool")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (type(attempted) is int and attempted >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not (type(failed) is int and 0 <= failed <= (attempted or 0)):
        problems.append("failed is not a whole number in [0, attempted]")
    metrics = result.get("metrics", {})
    units = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(units):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(units) - set(metrics)),
            sorted(set(metrics) - set(units))))
    for name, m in metrics.items():
        value = m.get("value") if isinstance(m, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append("%s is not a finite number" % name)
        if not isinstance(m, dict) or m.get("unit") != units.get(name):
            problems.append("%s has the wrong unit" % name)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from %s" %
                        (WORKLOADS,))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no aeromesh sources next to perfbench/; nothing to measure")
        return 2
    harness, daemon = build(build_dir())
    deadline = max(deadline, time.monotonic() + RUN_LIMIT_S)  # after a build

    runs = os.path.join(os.path.dirname(build_dir()), "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--daemon", daemon]
        legs = 1 if args.trace else LEGS
        results = []
        for leg in range(legs):
            r, lines = run_harness(cmd + ["--leg", str(leg), "--legs",
                                          str(legs)], workdir, deadline)
            for line in lines:
                print(line)
            results.append(r)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = results[0]["metrics"] if args.trace else pool_legs(
        args.workload, results)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in expected:
        name = m["name"]
        if name in raw:
            value = raw[name]
        elif name.startswith(NOT_MEASURED[args.workload]):
            value = 0
        else:
            continue  # reported missing by the self-check
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {"correct": all(r["correct"] for r in results),
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    problems = self_check(result, expected, spec)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        sys.exit(1)
