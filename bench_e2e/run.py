#!/usr/bin/env python3
"""Builds the end-to-end benchmark in Release and runs it.

One workload (what BENCHMARK.json's command runs):

    python3 bench_e2e/run.py --workload pipeline_7k --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a summary (exits non-zero on any
output-check failure):

    python3 bench_e2e/run.py --all [--seed N] [--seconds S]

The benchmark's own tests (percentiles, output checker, smoke runs):

    python3 bench_e2e/run.py --selftest

Everything the build and the runs leave behind goes under .bench_build/ at
the root of the checkout. The last line a single workload prints on stdout
is its JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "bench_e2e")
WORKLOADS = ["pipeline_7k", "durable_quorum", "socket_64b", "ring_64b"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.strip().partition("=")
                if name.split(":")[0] == key:
                    return value
    except OSError:
        pass
    return None


def build():
    """Configures (once) and builds the Release tree; refuses any other."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if cache_value("CMAKE_BUILD_TYPE") is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if cache_value("CMAKE_BUILD_TYPE") != "Release":
        fail("build tree %s is not Release; remove it" % BUILD)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def bench_command(workload, seed, seconds, trace, sha):
    return [os.path.join(BUILD, "bench_e2e"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", os.path.join(OUT, "work"),
            "--trace-dir", os.path.join(OUT, "traces"),
            "--results-dir", os.path.join(OUT, "results"),
            "--git-sha", sha]


def run_all(seed, seconds):
    sha = git_sha()
    rows = []
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(bench_command(workload, seed, seconds,
                                                trace, sha),
                                  capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                rows.append((workload, trace, "FAILED", "", ""))
                continue
            for name, m in result["metrics"].items():
                rows.append((workload, trace, name, m["value"], m["unit"]))
    print("\n%-15s %-5s %-34s %16s %s" % ("workload", "trace", "metric",
                                          "value", "unit"))
    for workload, trace, name, value, unit in rows:
        shown = "%.6g" % value if isinstance(value, float) else str(value)
        print("%-15s %-5s %-34s %16s %s" % (workload, trace, name, shown, unit))
    print("all workloads passed their output checks" if ok
          else "OUTPUT CHECK FAILURES")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("give --workload, --all or --selftest")

    build()
    os.chdir(ROOT)
    if args.selftest:
        test = os.path.join(BUILD, "bench_e2e_test")
        if not os.path.isfile(test):
            fail("GoogleTest was not found at configure time; no self-tests")
        return subprocess.run([test]).returncode
    if args.all:
        return run_all(args.seed, args.seconds)
    sys.stdout.flush()
    return subprocess.run(bench_command(args.workload, args.seed,
                                        args.seconds, args.trace,
                                        git_sha())).returncode


if __name__ == "__main__":
    sys.exit(main())
