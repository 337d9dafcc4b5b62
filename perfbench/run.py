#!/usr/bin/env python3
"""Builds and runs the csjoin serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload prescreen_100k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

A run builds perfbench/ (a CMake project compiling ../src) into
.bench_build/perfbench in Release mode, runs csj_perfbench and passes its
provenance and report lines through. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}, where metrics
holds exactly the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1), each with the unit BENCHMARK.json names.

--selfcheck runs every workload at reduced scale, traced and untraced, and
asserts that every metric of BENCHMARK.json is emitted with its unit, that
the traced layers account for the client latency within
LAYER_SUM_TOLERANCE, and that the correctness gate fails when handed a
deliberately wrong reference ranking.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "csj_perfbench")
# The run's whole budget is 180 s; the binary gets what the build left.
RUN_BUDGET_S = 175.0
# trace.unattributed_share: client read latency not covered by the wire
# overhead, the queue wait and the in-process top-k query, as a share of
# client latency. The self-check requires |share| <= this. The in-process
# query runs seconds after the served ones, and this host's speed swings
# by a quarter between such moments, so the check catches a missing layer,
# not a few percent.
LAYER_SUM_TOLERANCE = 0.5


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ("BENCHMARK.json", "perfbench/CMakeLists.txt",
                 "src/CMakeLists.txt"):
        if not os.path.isfile(path):
            fail("%s not found: run from the root of a csjoin checkout" % path,
                 2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "--target", "csj_perfbench",
               "-j", jobs]
    if subprocess.call(command, stdout=sys.stderr) != 0:
        fail("build failed")


def provenance_args():
    """The git SHA when the checkout is a repository, and always a digest
    of the sources the benchmark compiles, so a result can be traced back
    to its code either way."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return ["--git_sha", sha or "none",
            "--source_digest", digest.hexdigest()[:16]]


def wanted_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_binary(args, timeout):
    """Runs csj_perfbench; returns (stdout lines, result object)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    # A run removes its store when it ends; one that was killed cannot.
    for name in os.listdir(WORK_DIR):
        if name.startswith("store-"):
            shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)
    command = [BINARY, "--work_dir", WORK_DIR] + args
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %.0f s" % timeout)
    if proc.returncode != 0:
        fail("csj_perfbench exited with %d" % proc.returncode,
             proc.returncode)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("csj_perfbench printed no result")
    result = json.loads(lines[-1])
    return lines[:-1], result


def select(result, metrics):
    """The result restricted to `metrics`, units checked."""
    selected = {}
    for metric in metrics:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail("metric %s was not emitted" % metric["name"])
        if got["unit"] != metric["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (metric["name"], got["unit"], metric["unit"]))
        selected[metric["name"]] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": selected}


def selfcheck(spec):
    problems = []
    common = provenance_args() + ["--seconds", "2", "--small"]
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            args = ["--workload", name, "--seed", "7", "--trace",
                    str(trace)] + common
            _, result = run_binary(args, RUN_BUDGET_S)
            out = select(result, wanted_metrics(spec, trace))
            if not out["correct"] or out["failed"] != 0:
                problems.append("%s trace=%d: gate failed" % (name, trace))
            if trace:
                share = out["metrics"]["trace.unattributed_share"]["value"]
                if abs(share) > LAYER_SUM_TOLERANCE:
                    problems.append(
                        "%s: traced layers leave %.3f of client latency "
                        "unexplained (tolerance %.2f)"
                        % (name, share, LAYER_SUM_TOLERANCE))
                print("selfcheck %-16s unattributed share %.3f"
                      % (name, share), file=sys.stderr)
            print("selfcheck %-16s trace=%d: %d checks, %d metrics"
                  % (name, trace, out["attempted"], len(out["metrics"])),
                  file=sys.stderr)
        args = ["--workload", name, "--seed", "7", "--trace", "0",
                "--corrupt_reference"] + common
        _, result = run_binary(args, RUN_BUDGET_S)
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: gate accepted a wrong reference ranking"
                            % name)
    for problem in problems:
        print("selfcheck FAIL: " + problem, file=sys.stderr)
    print(json.dumps({"selfcheck": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    options = parser.parse_args()

    check_checkout()
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if not options.selfcheck and options.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names), 2)

    started = time.monotonic()
    build()
    if options.selfcheck:
        return selfcheck(spec)

    args = ["--workload", options.workload, "--seed", str(options.seed),
            "--seconds", repr(options.seconds), "--trace",
            str(options.trace)] + provenance_args()
    budget = max(60.0, RUN_BUDGET_S - (time.monotonic() - started))
    lines, result = run_binary(args, budget)
    for line in lines:
        print(line)
    print(json.dumps(select(result, wanted_metrics(spec, options.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
