#!/usr/bin/env python3
"""Runs one workload of the ladder benchmark and prints its result.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 \
        --trace 0

Run it from the root of a checkout. It builds perfbench/ (a CMake
project over the repository's src/) in Release into $CARGO_TARGET_DIR,
or .bench_build when that is unset, runs the benchmark's own tests, then
runs the `ladder` binary for the workload in its own process. The
binary's full row (context stamp, failure counts, metrics) is printed
first; the last line is the result object with the metrics that
BENCHMARK.json names for the chosen trace mode. Any wrong value, failed
build, missing metric or leftover file exits nonzero without a result.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds perfbench/ once per checkout (incremental)."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs],
            [os.path.join(build_dir, "harness_test")],
        ]
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                log("step failed: %s: %s" % (" ".join(cmd), e))
                return False
            if done.returncode != 0:
                log("step failed: " + " ".join(cmd))
                return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        log("--seed must be >= 0 and --seconds in [1, 600]")
        return 2

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no src/ next to perfbench/: nothing to build")
        return 2
    wanted = expected_metrics(args.trace)
    build_dir = os.path.join(os.getcwd(),
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1

    # Pool files, the checkpoint files and the socket live in a fresh
    # directory of their own. The binary runs inside it and names them
    # relative to it, so the socket path stays short however deep the
    # checkout lies.
    run_dir = os.path.join(build_dir, "run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    env = dict(os.environ)
    env.pop("DASH_PM_FLUSH_NS", None)
    env.pop("DASH_PM_READ_NS", None)
    cmd = [os.path.join(build_dir, "ladder"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--run-dir=.",
           "--span-file=" + os.path.join(span_dir, args.workload + ".jsonl"),
           "--commit=" + source_id()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=run_dir)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("ladder timed out")
        return 1
    finally:
        leftover = os.listdir(run_dir) if os.path.isdir(run_dir) else []
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("ladder exited with %d" % proc.returncode)
        return 1
    if leftover:
        log("files left behind: %s" % leftover)
        return 1

    lines = out.strip().splitlines()
    row = json.loads(lines[-1]) if lines else {}
    metrics = row.get("metrics", {})
    missing = [m for m in wanted if m not in metrics]
    if missing or not row.get("correct") or row.get("wrong", 1) != 0:
        log("bad row (missing %s): %s" % (missing, lines[-1:] or out))
        return 1
    for name in wanted:
        if not math.isfinite(metrics[name]["value"]):
            log("metric %s is not finite" % name)
            return 1
    print(json.dumps(row))
    print(json.dumps({
        "correct": True,
        "attempted": int(row["attempted"]),
        "failed": int(row["failed"]),
        "metrics": {m: metrics[m] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
