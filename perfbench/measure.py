"""Process timing, peak memory, the run deadline and span arithmetic.

Every operation the benchmark times is one process, started and measured
by perfbench_spawn (spawn.cpp): its wall time is taken around fork and
wait, and its peak RSS comes from the rusage that wait4 returns for
exactly that process.
"""

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

PR_SET_CHILD_SUBREAPER = 36


class BenchError(Exception):
    """A failure that stops the run without a result."""


def become_subreaper():
    """Orphaned grandchildren (e.g. ensemble workers) re-parent to this
    process, so reap_children() can stop and wait for every one of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children():
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after the last ')'.
        if stat[stat.rfind(")") + 2:].split()[1] == me:
            pids.append(int(entry))
    return pids


def reap_children():
    """Kills and waits for every child process that is still around."""
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


@dataclass
class Op:
    rc: int
    wall_s: float
    rss_mb: float
    stdout_path: str

    def stdout(self):
        with open(self.stdout_path, encoding="utf-8", errors="replace") as f:
            return f.read()


class Clock:
    """The run's deadline: every operation must finish before it."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("run exceeded its time budget")
        return left


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(argv, stdout_path, clock, spawn, stderr_path=os.devnull,
           on_stderr_line=None):
    """Runs argv through the perfbench_spawn launcher `spawn`, in a process
    group of its own; returns its exit code, wall time and peak RSS.

    With on_stderr_line, stderr is read line by line and each line is passed
    with its arrival time in seconds since the launch; otherwise stderr goes
    to stderr_path.
    """
    timeout = clock.remaining()
    result_path = stdout_path + ".spawn"
    with open(stdout_path, "wb") as out:
        err = subprocess.PIPE if on_stderr_line else open(stderr_path, "wb")
        start = time.perf_counter()
        proc = subprocess.Popen([spawn, result_path, *argv], stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            if on_stderr_line:
                for line in proc.stderr:
                    on_stderr_line(time.perf_counter() - start,
                                   line.decode(errors="replace"))
            proc.wait()
        finally:
            timer.cancel()
            if on_stderr_line:
                proc.stderr.close()
            else:
                err.close()
    if time.monotonic() >= clock.deadline:
        raise BenchError(f"{os.path.basename(argv[0])} timed out")
    if proc.returncode != 0:
        raise BenchError(f"perfbench_spawn exited {proc.returncode}")
    with open(result_path) as f:
        rc, wall, rss_kib = f.read().split()
    return Op(int(rc), float(wall), int(rss_kib) / 1024.0, stdout_path)


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def span_table(spans):
    """Total and self seconds per span name (summed over same-name spans).

    spans: [name, parent_index, start_ns, end_ns]. Self time is a span's
    duration minus the part of it its child spans cover.
    """
    children = {}
    for name, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    table = {}
    for index, (name, _, start, end) in enumerate(spans):
        covered = union_length(children.get(index, []), start, end)
        row = table.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - covered) / 1e9
    return table
