#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of g10_run, g10_analyze and g10_ensemble.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the CLIs and
perfbench_trace in Release mode into .bench_build/, runs the workload in a
scratch directory under .bench_work/ (removed afterwards), checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run. The line before it is the run record (nproc,
build, commit, seed, input sizes, sample spreads, spans). perfbench/README.md
documents the workloads and every metric.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import glob
import json
import os
import re
import shutil
import signal
import statistics
import subprocess

from measure import BenchError, Clock, become_subreaper, reap_children
import workloads

TARGETS = ["g10_run", "g10_analyze", "g10_convert", "g10_ensemble",
           "perfbench_trace", "perfbench_spawn"]
RUN_BUDGET_S = 160  # with configure and a no-op build, a run ends within 180 s
BUILD_BUDGET_S = 850

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "analyze_s": "s",
    "run_peak_rss_mb": "MB", "analyze_peak_rss_mb": "MB",
    "fleet_runs_per_s": "1/s", "fleet_peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_phase_event"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("efficiency"):
        return "ratio"
    return "count"


def repo_root():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"{root} is not a grade10 source checkout "
                             f"(no {needed})")
    return root


def run_logged(argv, log, timeout):
    with open(log, "ab") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{argv[0]} timed out; see {log}")


def build(root):
    """Configures and builds the targets; returns the binary paths."""
    build_dir = os.path.join(root, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "perfbench-build.log")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    # Configuring every time picks up targets added since the last build.
    rc = run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    log, BUILD_BUDGET_S)
    if rc != 0:
        raise BenchError(f"cmake configure failed; see {log}")
    jobs = str(len(os.sched_getaffinity(0)))
    rc = run_logged(["cmake", "--build", build_dir, "--parallel", jobs,
                     "--target", *TARGETS], log, BUILD_BUDGET_S)
    if rc != 0:
        raise BenchError(f"build failed; see {log}")
    with open(cache) as f:
        text = f.read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
    if not build_type or build_type[1] != "Release":
        raise BenchError("refusing to measure a build that is not Release")
    bins = {name: os.path.join(build_dir, "grade10", "tools", name)
            for name in TARGETS}
    for name in ("perfbench_trace", "perfbench_spawn"):
        bins[name] = os.path.join(build_dir, name)
    return bins, build_dir


def build_record(root, build_dir):
    compiler = "unknown"
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = f"{ident[1]} {version[1]}"
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "build_type": "Release",
            "compiler": compiler, "commit": commit}


def spread(values):
    values = sorted(values)
    row = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        row["q1"], _, row["q3"] = statistics.quantiles(values, n=4)
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = repo_root()
    become_subreaper()
    bins, build_dir = build(root)
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", f"{workload.name}-{os.getpid()}")
    run = workloads.Run(bins, work, args.seed, Clock(RUN_BUDGET_S))
    try:
        if args.trace:
            metrics, spans = workloads.traced_workload(run, workload,
                                                       args.seconds)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            spans = {}
            run_fn = (workloads.fleet_workload if workload.fleet
                      else workloads.file_workload)
            metrics = run_fn(run, workload, args.seconds)
            # Jeffreys estimate of the failure probability: never 0, and
            # exactly failed/attempted when half the operations fail.
            metrics["fail_ratio"] = (run.failed + 0.5) / (run.attempted + 1)
            units = END_TO_END_UNITS
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # unless another run uses it
        except OSError:
            pass

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **build_record(root, build_dir), "inputs": run.inputs,
              "samples": {name: spread(values)
                          for name, values in sorted(run.samples.items())},
              "spans": spans, "problems": run.problems, **run.record}
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}", file=sys.stderr)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        reap_children()
        sys.exit(1)
