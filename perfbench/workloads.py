"""The benchmark's workloads and the checks on their outputs.

A *pass* is one g10_run followed by one g10_analyze on its trace, each a
separate process invoked the way a user types it. A *fleet* is one
g10_ensemble process. An operation that exits non-zero, or an analysis
that fails strict preflight, counts as failed; an output that differs from
what it must be (see README.md, "Checks") makes the run incorrect.
"""

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from statistics import median

from measure import run_op, span_table, union_length

ROUNDS = 3  # fresh work directories per run; each one's first op is set-up


@dataclass(frozen=True)
class Pipeline:
    engine: str
    dataset: str
    workers: int
    iterations: int
    monitor_ms: int
    sync_bug: bool
    binary: bool
    timeslice_ms: int = 0  # 0 = g10_analyze's default
    rank_gather: bool = False  # the report must rank GatherThread imbalance

    @property
    def trace_name(self):
        return "run.g10t" if self.binary else "run.log"

    def run_argv(self, bins, out, seed):
        argv = [bins["g10_run"], "--engine", self.engine, "--algorithm",
                "pagerank", "--dataset", self.dataset, "--workers",
                str(self.workers), "--iterations", str(self.iterations),
                "--monitor-ms", str(self.monitor_ms)]
        if self.sync_bug:
            argv.append("--sync-bug")
        if self.binary:
            argv += ["--trace-format", "binary"]
        return argv + ["--seed", str(seed), "--out", out]

    def analyze_argv(self, bins, out, trace_name=None):
        argv = [bins["g10_analyze"], "--model", f"{out}/model.g10", "--log",
                f"{out}/{trace_name or self.trace_name}", "--lenient"]
        if self.timeslice_ms:
            argv += ["--timeslice-ms", str(self.timeslice_ms)]
        return argv

    def traced_argv(self, bins, out, seed):
        argv = [bins["perfbench_trace"], "--engine", self.engine, "--dataset",
                self.dataset, "--workers", str(self.workers), "--iterations",
                str(self.iterations), "--monitor-ms", str(self.monitor_ms),
                "--trace-format", "binary" if self.binary else "text",
                "--timeslice-ms", str(self.timeslice_ms or 50)]
        if self.sync_bug:
            argv.append("--sync-bug")
        return argv + ["--seed", str(seed), "--out", out]


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: Pipeline  # for fleet-rmat14: one fleet scenario run by hand
    pass_s: float  # nominal seconds of one timed repetition, 4-core host
    traced_pass_s: float
    fleet: bool = False
    traced_fleets: int = 0  # in-process fleets the traced run measures


# One scenario of the fleet, as a user would run it on its own: the
# ensemble runner samples every 100 ms and analyses at 20 ms timeslices.
FLEET_SCENARIO = Pipeline("gas", "rmat:14", 4, 10, 100, sync_bug=True,
                          binary=False, timeslice_ms=20)
FLEET_SEEDS = 32  # x engines {pregel,gas} x faults {none,crash} = 128
FLEET_SCENARIOS = 2 * 2 * FLEET_SEEDS

WORKLOADS = {w.name: w for w in [
    Workload("pregel-pagerank-rmat18",
             Pipeline("pregel", "rmat:18", 32, 50, 1, sync_bug=False,
                      binary=True),
             pass_s=5.0, traced_pass_s=7.5),
    # Its traced run also measures the ensemble layer (see README.md).
    Workload("gas-syncbug-rmat16",
             Pipeline("gas", "rmat:16", 32, 60, 10, sync_bug=True,
                      binary=False, rank_gather=True),
             pass_s=2.0, traced_pass_s=3.0, traced_fleets=1),
    Workload("fleet-rmat14", FLEET_SCENARIO, pass_s=1.6, traced_pass_s=2.0,
             fleet=True, traced_fleets=3),
]}

PER_LAYER_SPANS = {
    "graph.generate_s": "graph.generate",
    "engine.run_s": "engine.run",
    "monitor.sample_s": "monitor.sample",
    "trace.write_s": "trace.write",
    "trace.read_s": "trace.read",
    "lint.preflight_s": "lint.preflight",
    "exec_trace.build_s": "exec_trace.build",
    "resource_trace.build_s": "resource_trace.build",
    "demand.estimate_s": "demand.estimate",
    "attribution.attribute_s": "attribution.attribute",
    "bottleneck.detect_s": "bottleneck.detect",
    "issues.detect_s": "issues.detect",
    "report.render_s": "report.render",
}
PER_LAYER_COUNTS = ["graph.edges", "engine.phase_events",
                    "engine.remote_bytes", "engine.batch_flushes",
                    "engine.sim_makespan_s",
                    "monitor.samples", "trace.bytes", "trace.records",
                    "lint.errors", "lint.warnings", "exec_trace.instances",
                    "issues.count", "report.bytes"]
ENSEMBLE_METRICS = ["ensemble.scenario_s", "ensemble.self_s",
                    "ensemble.parallel_efficiency", "ensemble.worker_deaths",
                    "ensemble.fleet_crashes"]

PREFLIGHT_RE = re.compile(r"^lenient: continuing past (\d+) preflight error",
                          re.M)
DATASET_RE = re.compile(r"^dataset: (\d+) vertices, (\d+) edges", re.M)
WROTE_RE = re.compile(r"\((\d+) phase events, (\d+) blocking events, "
                      r"(\d+) samples\)")
SUPERVISOR_RE = re.compile(r"^workers=(\d+) crashes=(\d+) wedges=(\d+) "
                           r"finalized=(\d+) poisoned=(\d+) "
                           r"abandoned_shards=(\d+)", re.M)
IMBALANCE_RE = re.compile(r"^imbalance across concurrent '([^']+)' phases",
                          re.M)
PROGRESS_RE = re.compile(r"^\[\d+\] (\S+) (.*)$")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_journal(path):
    """Journal entries; a line torn by a crash is skipped."""
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    entries.append(json.loads(line))
                except ValueError:
                    pass
    return entries


class Run:
    """State of one benchmark run: ops counted, samples, failed checks."""

    def __init__(self, bins, work, seed, clock):
        self.bins, self.work, self.seed, self.clock = bins, work, seed, clock
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.first = {}  # check name -> first value seen this run
        self.inputs = {}
        self.record = {"fleet_crashes": 0}

    def fresh_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def op(self, argv, stdout_path, **kwargs):
        return run_op(argv, stdout_path, self.clock,
                      self.bins["perfbench_spawn"], **kwargs)

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)
        return ok

    def same(self, name, value):
        """Checks that `value` equals the first value seen under `name`."""
        first = self.first.setdefault(name, value)
        return self.check(value == first, f"{name} differs between passes")

    # -- one g10_run / one g10_analyze ------------------------------------

    def g10_run(self, pipe, out):
        op = self.op(pipe.run_argv(self.bins, out, self.seed),
                     f"{out}/g10_run.out")
        self.count(1, op.rc != 0)
        if op.rc != 0:
            return op
        trace = f"{out}/{pipe.trace_name}"
        self.same("trace bytes", sha256(trace))
        if not self.inputs:
            text = op.stdout()
            dataset, wrote = DATASET_RE.search(text), WROTE_RE.search(text)
            if dataset and wrote:
                self.inputs = {
                    "vertices": int(dataset[1]), "edges": int(dataset[2]),
                    "phase_events": int(wrote[1]),
                    "blocking_events": int(wrote[2]),
                    "samples": int(wrote[3]),
                    "trace_bytes": os.path.getsize(trace),
                }
        return op

    def g10_analyze(self, pipe, out):
        op = self.op(pipe.analyze_argv(self.bins, out), f"{out}/analyze.out",
                     stderr_path=f"{out}/analyze.err")
        report = op.stdout()
        # Strict preflight (lint_model_text + lint_trace, which g10_analyze
        # runs before characterizing) must pass; --lenient only lets the
        # pipeline go on, so analyze_s always times the full path.
        preflight = PREFLIGHT_RE.search(report)
        self.count(1, op.rc != 0 or preflight is not None)
        self.record["preflight_errors"] = int(preflight[1]) if preflight else 0
        if op.rc == 0:
            self.same("report bytes", report)
            if pipe.rank_gather:
                ranked = IMBALANCE_RE.findall(report)
                self.check(ranked[:1] == ["GatherThread"],
                           "report does not rank GatherThread imbalance first")
        return op

    def cli_pass(self, pipe, out, setup=False):
        run = self.g10_run(pipe, out)
        self.add("setup_s" if setup else "run_s", run.wall_s)
        self.add("run_peak_rss_mb", run.rss_mb)
        analyze = self.g10_analyze(pipe, out)
        self.add("analyze_s", analyze.wall_s)
        self.add("analyze_peak_rss_mb", analyze.rss_mb)
        if not setup:
            self.add("pass_per_s", 1.0 / (run.wall_s + analyze.wall_s))
            self.add("pass_peak_rss_mb", max(run.rss_mb, analyze.rss_mb))
        return run, analyze

    def parity(self, pipe, out):
        """The text and .g10t forms of one trace must analyse identically."""
        other = "run.log" if pipe.binary else "run.g10t"
        convert = self.op([self.bins["g10_convert"], "--in",
                           f"{out}/{pipe.trace_name}", "--out",
                           f"{out}/{other}"], f"{out}/convert.out")
        if not self.check(convert.rc == 0, f"g10_convert exited {convert.rc}"):
            return
        reports = []
        for name in (pipe.trace_name, other):
            op = self.op(pipe.analyze_argv(self.bins, out, name),
                         f"{out}/parity-{name}.out")
            self.check(op.rc == 0, f"g10_analyze on {name} exited {op.rc}")
            reports.append(op.stdout())
        self.check(reports[0] == reports[1],
                   "text and .g10t forms of the trace analyse differently")

    # -- fleets -------------------------------------------------------------

    def fleet_argv(self, out, jobs=0):
        argv = [self.bins["g10_ensemble"], "--out", out, "--engines",
                "pregel,gas", "--faults", "none", "--faults", "crash:w1@40%",
                "--seeds", str(FLEET_SEEDS), "--seed-base", str(self.seed),
                "--dataset", "rmat:14", "--iterations", "10", "--sync-bug"]
        return argv + (["--jobs", str(jobs)] if jobs else [])

    def fleet(self, out, traced=False, jobs=0):
        """Runs one fleet and checks it. Returns the op, its journal entries,
        its ok count and, when traced, each scenario's completion time from
        the fleet's start, taken when its progress line arrives on stderr.

        Every scenario that is not journaled ok counts as failed, including
        the ones a crashed fleet never finished."""
        completions = {}

        def on_line(when, line):
            match = PROGRESS_RE.match(line)
            if match:
                completions[match[2].strip()] = when

        op = self.op(self.fleet_argv(out, jobs), f"{out}.out",
                     stderr_path=f"{out}.err",
                     on_stderr_line=on_line if traced else None)
        entries = read_journal(f"{out}/journal.jsonl")
        ok = sum(e["outcome"] == "ok" for e in entries)
        self.count(FLEET_SCENARIOS, FLEET_SCENARIOS - ok)
        if op.rc != 0:
            self.record["fleet_crashes"] += 1
        elif ok == FLEET_SCENARIOS:
            with open(f"{out}/report.json") as f:
                report = f.read()
            self.same("fleet report.json", report)
            gas = sum("engine=gas " in e["scenario"] for e in entries)
            self.check(
                json.loads(report)["sync_bug_rediscovery"]["hits"] == gas,
                "sync-bug rediscoveries differ from GAS scenarios")
        return op, entries, ok, completions


def file_workload(run, workload, seconds):
    pipe = workload.pipeline
    per_round = max(1, round(seconds / (ROUNDS * workload.pass_s)))
    for r in range(ROUNDS):
        out = run.fresh_dir(f"round{r}")
        run.cli_pass(pipe, out, setup=True)
        for _ in range(per_round):
            run.cli_pass(pipe, out)
    run.parity(pipe, out)
    samples = run.samples
    return {
        "setup_s": median(samples["setup_s"]),
        "run_s": median(samples["run_s"]),
        "analyze_s": median(samples["analyze_s"]),
        "run_peak_rss_mb": median(samples["run_peak_rss_mb"]),
        "analyze_peak_rss_mb": median(samples["analyze_peak_rss_mb"]),
        # A pass is a fleet of one scenario run by hand.
        "fleet_runs_per_s": median(samples["pass_per_s"]),
        "fleet_peak_rss_mb": median(samples["pass_peak_rss_mb"]),
    }


def fleet_workload(run, workload, seconds):
    per_round = max(1, round(seconds / (ROUNDS * workload.pass_s)))
    for r in range(ROUNDS):
        out = run.fresh_dir(f"round{r}")
        op, _, _, _ = run.fleet(f"{out}/setup")
        run.add("setup_s", op.wall_s)
        for p in range(per_round):
            op, _, ok, _ = run.fleet(f"{out}/fleet{p}")
            run.add("fleet_runs_per_s", ok / op.wall_s)
            run.add("fleet_peak_rss_mb", op.rss_mb)
            scenario = run.fresh_dir(f"round{r}/scenario{p}")
            run.cli_pass(FLEET_SCENARIO, scenario)
    run.parity(FLEET_SCENARIO, scenario)
    samples = run.samples
    return {name: median(samples[name]) for name in [
        "setup_s", "run_s", "analyze_s", "run_peak_rss_mb",
        "analyze_peak_rss_mb", "fleet_runs_per_s", "fleet_peak_rss_mb"]}


def traced_passes(run, pipe, out, count):
    """One untraced pass, then `count` traced passes of the same pipeline.
    Returns per-layer medians and the per-span medians of total and self
    time; tracing.overhead_s is the traced pass (checks excluded) minus the
    untraced one."""
    baseline_run, baseline_analyze = run.cli_pass(pipe, out)
    cli_report = baseline_analyze.stdout()
    cli_trace = sha256(f"{out}/{pipe.trace_name}")
    rows, tables, walls = [], [], []
    for t in range(count):
        traced = run.fresh_dir(f"traced{t}")
        op = run.op(pipe.traced_argv(run.bins, traced, run.seed),
                    f"{traced}.json")
        if op.rc != 0:
            run.count(2, 2)
            continue
        data = json.loads(op.stdout())
        counts = data["counts"]
        run.count(2, counts["lint.errors"] > 0)  # the analyze half's preflight
        run.check(data["reference_ok"],
                  "vertex values differ from algorithms/reference "
                  f"(max error {data['reference_max_error']})")
        run.same("run digest", data["run_digest"])
        run.same("characterization digest", data["characterization_digest"])
        run.check(sha256(f"{traced}/{pipe.trace_name}") == cli_trace,
                  "traced pass wrote another trace than g10_run")
        with open(f"{traced}/report.txt") as f:
            run.check(cli_report.endswith(f.read()),
                      "traced pass rendered another report than g10_analyze")
        table = span_table(data["spans"])
        tables.append(table)
        checks = sum(row["total_s"] for name, row in table.items()
                     if name.startswith("check."))
        walls.append(op.wall_s - checks)
        row = {metric: table[span]["total_s"]
               for metric, span in PER_LAYER_SPANS.items()}
        row.update({name: counts[name] for name in PER_LAYER_COUNTS})
        row["engine.host_us_per_phase_event"] = (
            row["engine.run_s"] * 1e6 / counts["engine.phase_events"])
        row["run.self_s"] = table["run"]["self_s"]
        row["analyze.self_s"] = table["analyze"]["self_s"]
        rows.append(row)
        run.record["digests"] = {
            "run": data["run_digest"],
            "characterization": data["characterization_digest"]}
    if not rows:
        return {}, {}
    metrics = {name: median([row[name] for row in rows]) for name in rows[0]}
    metrics["tracing.overhead_s"] = median(walls) - (baseline_run.wall_s +
                                                     baseline_analyze.wall_s)
    spans = {name: {key: median([t[name][key] for t in tables if name in t])
                    for key in ("total_s", "self_s")} for name in tables[0]}
    return metrics, spans


def fleet_spans(op, entries, completions):
    """The ensemble layer of one fleet: each scenario is a child span that
    ends when its progress line arrives and lasts its journaled wall_ms."""
    walls = {e["scenario"]: e["wall_ms"] / 1e3 for e in entries}
    intervals = [(completions[s] - w, completions[s])
                 for s, w in walls.items() if s in completions]
    return {
        "scenarios": list(walls.values()),
        "self_s": op.wall_s - union_length(intervals, 0.0, op.wall_s),
        # The in-process executor runs one thread per hardware thread.
        "efficiency": sum(walls.values()) / (op.wall_s * os.cpu_count()),
    }


def traced_workload(run, workload, seconds):
    pipe = workload.pipeline
    count = max(1, round(seconds / workload.traced_pass_s))
    out = run.fresh_dir("round0")
    metrics, spans = traced_passes(run, pipe, out, count)
    run.parity(pipe, out)
    metrics.update({name: 0.0 for name in ENSEMBLE_METRICS})
    if workload.traced_fleets:
        metrics.update(ensemble_layer(run, out, workload.traced_fleets))
    return metrics, spans


def ensemble_layer(run, out, fleets):
    """ensemble.* from in-process fleets, plus one supervised probe fleet
    under --jobs nproc whose worker deaths are counted and whose report.json
    must match the in-process fleets'."""
    measured = []
    for f in range(fleets):
        op, entries, _, completions = run.fleet(f"{out}/fleet{f}", traced=True)
        if op.rc == 0:
            measured.append(fleet_spans(op, entries, completions))
    metrics = {"ensemble.fleet_crashes": float(run.record["fleet_crashes"])}
    if measured:
        metrics["ensemble.scenario_s"] = median(
            [s for fleet in measured for s in fleet["scenarios"]])
        metrics["ensemble.self_s"] = median([f["self_s"] for f in measured])
        metrics["ensemble.parallel_efficiency"] = median(
            [f["efficiency"] for f in measured])
    jobs = len(os.sched_getaffinity(0))
    op, _, _, _ = run.fleet(f"{out}/probe", jobs=jobs)
    stats = SUPERVISOR_RE.search(op.stdout())
    if run.check(stats is not None, "supervised fleet printed no stats line"):
        deaths = int(stats[2]) + int(stats[3])  # crashes + wedges
        metrics["ensemble.worker_deaths"] = float(deaths)
        run.record["probe"] = {"jobs": jobs, "wall_s": op.wall_s,
                               "stats": stats[0]}
    return metrics
