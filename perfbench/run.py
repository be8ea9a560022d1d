#!/usr/bin/env python3
"""Builds the workload benchmark from the checkout's sources and runs one
workload in its own process.

    python3 perfbench/run.py --workload <rewrite|serve|execute|attack>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run); build output goes to standard error.
The last line of standard output is the run's JSON result. Untraced runs
print every end-to-end metric of BENCHMARK.json; traced runs print every
per-layer metric (those the workload's spans never reach read 0) and
write the spans to .bench_build/traces/<workload>-<seed>.json as Chrome
trace-event JSON. Exits non-zero, printing no result, when the build or
the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("rewrite", "serve", "execute", "attack")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # A failed first configure leaves no cache behind; configure again then.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    declared = declared_metrics(a.trace)
    build()
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (a.workload, a.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (a.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail("%s run failed (exit %d)" % (a.workload, proc.returncode))
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])

    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        fail("undeclared metrics: " + ", ".join(unknown))
    metrics = {}
    for m in declared:
        if m["name"] in got:
            if got[m["name"]]["unit"] != m["unit"]:
                fail("unit of %s is not %s" % (m["name"], m["unit"]))
            metrics[m["name"]] = got[m["name"]]
        elif a.trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("%s did not report %s" % (a.workload, m["name"]))
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
