#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library under src/) into .bench_build/, writes the
workload's inputs for the seed with perfbench_gen, runs perfbench_run on them
and prints one JSON object: {"correct", "attempted", "failed", "metrics"}.
Untraced runs report the end-to-end metrics of BENCHMARK.json, traced runs
its per-layer metrics (zero for a layer the workload does not reach). A metric
the program reports that BENCHMARK.json does not name is an error. The full result (every metric with its sample count,
the run metadata) is kept in .bench_build/results/.

Exit status: 0 when every output check passed; 1 otherwise, or when the
benchmark cannot build or run (then no result line is printed).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("org-audit", "churn-serve", "churn-serve-s4", "churn-mine")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures once, then builds incrementally; the log goes to stderr on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) are missing; nothing to build")
    log_path = os.path.join(BUILD_ROOT, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def inputs_for(workload, seed, scale):
    """Generates the workload's inputs for the seed (kept until another seed)."""
    kind = "churn-serve" if workload == "churn-serve-s4" else workload
    base = os.path.join(BUILD_ROOT, "inputs")
    name = "%s-%s-seed%d" % (kind, scale, seed)
    path = os.path.join(base, name)
    done = os.path.join(path, ".complete")
    if os.path.exists(done):
        return path
    if os.path.isdir(base):
        for old in os.listdir(base):
            if old.startswith(kind + "-"):
                shutil.rmtree(os.path.join(base, old))
    cmd = [os.path.join(BUILD, "perfbench_gen"), "--workload", workload, "--seed", str(seed),
           "--out", path, "--scale", scale]
    if subprocess.run(cmd).returncode != 0:
        raise BenchError("input generation failed")
    open(done, "w").close()
    return path


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test scale")
    ap.add_argument("--plant-fault", action="store_true",
                    help="flip one checked value, to show the checks catch it")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    inputs = inputs_for(args.workload, args.seed, args.scale)
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(results, "%s-seed%d-trace%d.json" %
                               (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD, "perfbench_run"), "--workload", args.workload,
           "--input", inputs, "--work", os.path.join(BUILD_ROOT, "work", args.workload),
           "--result", result_path, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if args.plant_fault:
        cmd.append("--plant-fault")
    if os.path.exists(result_path):
        os.remove(result_path)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_run did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not os.path.exists(result_path):
        raise BenchError("perfbench_run failed with status %d" % proc.returncode)
    with open(result_path) as f:
        result = json.load(f)

    section = result["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(section) - {m["name"] for m in wanted})
    if unknown:
        raise BenchError("metrics not in BENCHMARK.json: %s" % ", ".join(unknown))
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None and args.trace:
            # A layer this workload does not reach.
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["unit"] != m["unit"]:
            raise BenchError("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    result["meta"].update(git_sha=git_sha(), source_digest=source_digest(),
                          wall_s=time.monotonic() - started)
    with open(result_path, "w") as f:
        json.dump(result, f, indent=1)
    print("meta: " + json.dumps({k: v for k, v in result["meta"].items() if k != "shape"}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stdout.flush()
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
