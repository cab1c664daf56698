#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Checks that inputs are a function of the seed, that every untraced and traced
run reports each metric of BENCHMARK.json and of the workload's own paths with
its unit and sample count, that each per-layer metric is set by some
workload, that a traced run writes a loadable trace and the per-layer table,
and that a planted wrong answer is counted as a failure and turns the exit
status non-zero. Exits 1 on the first broken expectation.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

SEED = 900001
NAMED = {
    "org-audit": {"setup_s": "s", "audit_s": "s"},
    "churn-serve": {"setup_s": "s", "fresh_ms": "ms", "fresh_tail_ms": "ms",
                    "ingest_mut_per_s": "1/s", "read_us": "us", "read_tail_us": "us",
                    "reader_lateness_us": "us", "recover_s": "s"},
    "churn-mine": {"setup_s": "s", "mine_s": "s", "mine_roles": "count", "mine_edges": "count"},
}
NAMED["churn-serve-s4"] = NAMED["churn-serve"]


def fail(message):
    print("selftest: FAILED: " + message)
    sys.exit(1)


def bench(workload, trace, plant=False):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    if plant:
        cmd.append("--plant-fault")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing (status %d): %s"
             % (workload, proc.returncode, proc.stderr[-2000:]))
    line = json.loads(lines[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result line has keys %s" % (workload, sorted(line)))
    path = os.path.join(run.BUILD_ROOT, "results",
                        "%s-seed%d-trace%d.json" % (workload, SEED, trace))
    with open(path) as f:
        return proc.returncode, line, json.load(f)


def expect_metrics(where, got, wanted, sampled=True):
    """Every wanted metric is present in its unit; `sampled` ones with a sample count."""
    for name, unit in wanted.items():
        m = got.get(name)
        if m is None:
            fail("%s: metric %s missing" % (where, name))
        if m["unit"] != unit:
            fail("%s: metric %s in %s, expected %s" % (where, name, m["unit"], unit))
        if sampled and m.get("samples", 0) < 1:
            fail("%s: metric %s has no sample count" % (where, name))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.build()
    reached = set()  # per-layer metrics some workload's traced run sets

    gen = os.path.join(run.BUILD, "perfbench_gen")
    scratch = os.path.join(run.BUILD_ROOT, "selftest")
    for workload in run.WORKLOADS:
        dirs = [os.path.join(scratch, "%s-%d" % (workload, i)) for i in range(3)]
        for d, seed in zip(dirs, (SEED, SEED, SEED + 1)):
            subprocess.run([gen, "--workload", workload, "--seed", str(seed), "--out", d,
                            "--scale", "tiny"], check=True)
        if subprocess.run(["diff", "-rq", dirs[0], dirs[1]], capture_output=True).returncode != 0:
            fail("%s: one seed gave two different inputs" % workload)
        if subprocess.run(["diff", "-rq", dirs[0], dirs[2]], capture_output=True).returncode == 0:
            fail("%s: two seeds gave the same inputs" % workload)

    for workload in run.WORKLOADS:
        status, line, result = bench(workload, 0)
        if status != 0 or not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
            fail("%s: clean run reported failures: %s" % (workload, result["failures"]))
        expect_metrics(workload + " result line", line["metrics"], end_to_end, sampled=False)
        if set(line["metrics"]) != set(end_to_end):
            fail("%s: result line metrics %s" % (workload, sorted(line["metrics"])))
        expect_metrics(workload + " named", result["named"], NAMED[workload])
        expect_metrics(workload + " end-to-end", result["end_to_end"], end_to_end)
        for key in ("kernel_target", "capabilities", "library_threads", "nproc", "fsync",
                    "source_digest", "shape"):
            if key not in result["meta"]:
                fail("%s: run metadata lacks %s" % (workload, key))

        status, line, result = bench(workload, 1)
        if status != 0 or not line["correct"]:
            fail("%s: traced run reported failures: %s" % (workload, result["failures"]))
        expect_metrics(workload + " traced line", line["metrics"], per_layer, sampled=False)
        if set(line["metrics"]) != set(per_layer):
            fail("%s: traced result line metrics differ from BENCHMARK.json" % workload)
        reached |= set(result["per_layer"])
        run_id = "%s-seed%d" % (workload, SEED)
        with open(os.path.join(run.BUILD_ROOT, "results", "trace-%s.json" % run_id)) as f:
            events = json.load(f)["traceEvents"]
        if not events or any(set(e) != {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
                             for e in events):
            fail("%s: trace file is empty or malformed" % workload)
        with open(os.path.join(run.BUILD_ROOT, "results", "layers-%s.tsv" % run_id)) as f:
            if "layer\tspan\tcalls\ttotal_s\tself_s" not in f.read():
                fail("%s: per-layer table is malformed" % workload)

        status, line, result = bench(workload, 0, plant=True)
        if status == 0 or line["correct"] or line["failed"] < 1:
            fail("%s: a planted wrong answer was not counted as a failure" % workload)
        print("selftest: %-15s ok (%d checks; planted fault caught: %s)"
              % (workload, line["attempted"], result["failures"][0]))
    if set(per_layer) - reached:
        fail("no workload reports %s" % ", ".join(sorted(set(per_layer) - reached)))
    print("selftest: passed")


if __name__ == "__main__":
    main()
