#!/usr/bin/env python3
"""The statdisc benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

    scan       CLI ``scan --n-max 7`` (fermion) and ``--n-max 6`` (boson)
    reproduce  CLI ``reproduce --format json``
    classical  CLI ``classical --n 7``, standard and literal readings
    sweep      one process, one client in a closed loop over a seeded
               stream of small library calls
    all        the four above, one after the other

Every CLI task runs in a fresh process, as a user runs it, and is timed
from the end of ``import statdisc`` to the end of its output.  Task times
are in reference seconds: scaled by a calibration kernel timed while the
task runs (``calibrate.py``), so that the host's drifting speed does not
show in them.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced iterations and reports per-layer
metrics and the tracing overhead.  Every output is checked against the
references in ``reference/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import sweep
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("scan", "reproduce", "classical", "sweep")

# Fresh-interpreter set-ups per untraced run, half before the work and half
# after it, so they meet different states of a shared host; the median is
# setup_s.
SETUP_PROBES = 8
# A bare interpreter start's typical time on the host the seed baseline was
# measured on (see calibrate.REFERENCE_S): the scale of setup_s.
START_REFERENCE_S = 0.07
# No child may outlive this, so a run ends well within three minutes.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


class Child(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run a child to completion; its wall time and its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    reader.join()
    # wait4 rather than wait: it returns this child's own resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    proc.stdout.close()
    proc.stderr.close()
    # ru_maxrss is in KiB on Linux
    return Child(proc.returncode, stdout, stderr[0], wall,
                 usage.ru_maxrss / 1024)


def bare_start() -> float:
    """Seconds a bare ``python -c pass`` takes, spawned as a probe is."""
    start = perf_counter()
    child = subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT,
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise BenchError(f"python -c pass failed: "
                         f"{child.stderr.decode(errors='replace')}")
    return perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds from spawning a fresh interpreter to the first
    task ready.

    Set-up is mostly process start, dynamic loading and file reads, whose
    speed the calibration kernel does not follow.  So its time is scaled
    by ``START_REFERENCE_S`` over the time of a bare interpreter start
    spawned just before it.
    """
    factor = START_REFERENCE_S / bare_start()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "setup", workload, str(seed)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        _, err = proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0 or line != b"ready\n":
        raise BenchError(f"set-up failed: {err.decode(errors='replace')}")
    return ready * factor


def _alternate(deadline: float, modes: tuple[str, ...], step) -> None:
    """Call step(mode), cycling through modes, at least once per mode,
    until the next call would end after the deadline."""
    longest = {}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        if len(longest) == len(modes) and (
                perf_counter() + longest[mode] > deadline):
            return
        start = perf_counter()
        step(mode)
        longest[mode] = max(longest.get(mode, 0.0), perf_counter() - start)
        i += 1


class TaskTimes(NamedTuple):
    """What the task metrics of an untraced run come from, in seconds."""
    tasks: int  # in the task list
    wall: float  # for the whole task list
    repeats: int  # repetitions of the task list behind ``wall``
    p50: float
    p99: float
    latencies: int  # task latencies the percentiles are taken over


class Run:
    """What one invocation measured: timings, checks and trace totals."""

    def __init__(self):
        self.setup: list[float] = []
        self.walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.times: TaskTimes | None = None
        self.rss_mb: list[float] = []
        self.totals: dict[str, float] = {}
        self.attempted = self.failed = 0
        # the first failure messages; every failure is counted in ``failed``
        self.errors: list[str] = []

    def check(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{label}: {'; '.join(errors)}")

    def add_totals(self, totals: dict) -> None:
        for name, value in totals.items():
            self.totals[name] = self.totals.get(name, 0.0) + value


def _elapsed(child: Child) -> tuple[float, float]:
    """A timed CLI child's own time after import, in reference seconds and
    in plain seconds; its wall time twice if it died before it could
    report one."""
    lines = child.stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(worker.ELAPSED + " "):
        scaled, raw = map(float, lines[-1].split()[1:])
        return scaled, raw
    return child.wall, child.wall


def run_cli(workload: str, deadline: float, trace: bool, reference: dict,
            run: Run) -> None:
    """Repeat the workload's CLI tasks until the deadline.

    A task's time is the median of its repetitions, each a fresh process
    with a cold cache doing the same work, in reference seconds.
    """
    tasks = checks.CLI_TASKS[workload]
    samples: dict[int, list[float]] = {}

    def iteration(mode: str) -> None:
        # plain seconds of the tasks' own work, for the tracing overhead
        elapsed = 0.0
        rss = 0.0
        for i, argv in enumerate(tasks):
            label = "statdisc " + " ".join(argv)
            if mode == "traced":
                child = run_child([sys.executable, str(WORKER), "cli", str(i),
                                   *argv])
                try:
                    envelope = json.loads(child.stdout)
                except ValueError:
                    run.check(label, [f"traced child failed: "
                                      f"{child.stderr.decode(errors='replace')}"])
                    continue
                run.add_totals(envelope["totals"])
                elapsed += envelope["elapsed"]
                code, out = envelope["exit"], envelope["stdout"].encode()
            else:
                child = run_child([sys.executable, str(WORKER), "timed",
                                   *argv])
                code, out = child.code, child.stdout
                scaled, raw = _elapsed(child)
                samples.setdefault(i, []).append(scaled)
                elapsed += raw
                rss = max(rss, child.rss_mb)
            run.check(label, checks.check_cli(argv, code, out, reference))
        run.walls[mode].append(elapsed)
        if mode == "untraced":
            run.rss_mb.append(rss)

    _alternate(deadline, ("untraced", "traced") if trace else ("untraced",),
               iteration)
    if samples:
        typical = [statistics.median(times) for times in samples.values()]
        run.times = TaskTimes(
            len(typical), sum(typical),
            min(len(t) for t in samples.values()),
            statistics.median(typical),
            worker.percentile(sorted(typical), 99), len(typical))


def run_sweep(seed: int, deadline: float, trace: bool, run: Run) -> None:
    """One sweep process for the whole run; it checks its own results.

    The task list's time is the mean of its warm passes, and the
    percentiles are over every latency of those passes, so that a cost
    that comes back only now and then shows in them.
    """
    remaining = max(deadline - perf_counter(), 0.0)
    child = run_child([sys.executable, str(WORKER), "sweep", str(seed),
                       f"{remaining:.3f}", "1" if trace else "0"])
    if child.code != 0:
        raise BenchError(f"sweep process failed: "
                         f"{child.stderr.decode(errors='replace')}")
    result = json.loads(child.stdout)
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.errors += result["errors"]
    for kind, walls in result["walls"].items():
        run.walls[kind] += walls
    run.add_totals(result["totals"])
    passes = result["walls"]["untraced"]
    run.times = TaskTimes(sweep.TASKS, statistics.fmean(passes),
                          len(passes), result["p50"], result["p99"],
                          result["latencies"])
    run.rss_mb.append(child.rss_mb)


def end_to_end(run: Run) -> dict:
    """name -> (value, unit, samples)."""
    times = run.times
    return {
        "setup_s": (statistics.median(run.setup), "s", len(run.setup)),
        "wall_s": (times.wall, "s", times.repeats),
        "peak_rss_mb": (statistics.median(run.rss_mb), "MB", len(run.rss_mb)),
        "tasks_per_s": (times.tasks / times.wall, "1/s", times.repeats),
        "task_p50_ms": (1e3 * times.p50, "ms", times.latencies),
        "task_p99_ms": (1e3 * times.p99, "ms", times.latencies),
    }


def per_layer(run: Run) -> dict:
    traced = run.walls["traced"]
    metrics = {name: (value, unit, len(traced)) for name, (value, unit)
               in tracing.layer_metrics(run.totals, len(traced)).items()}
    overhead = (statistics.median(traced)
                - statistics.median(run.walls["untraced"]))
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    return metrics


def metadata(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Where and on what the numbers were measured."""
    try:
        # the ceiling keeps git from finding an enclosing repository when
        # the benchmark runs in a plain source tree
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "statdisc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 reference: dict) -> tuple[Run, dict]:
    deadline = perf_counter() + seconds
    run = Run()
    if not trace:
        first = SETUP_PROBES // 2
        run.setup = [setup_probe(workload, seed) for _ in range(first)]
        deadline -= (SETUP_PROBES - first) * max(run.setup)
    if workload == "sweep":
        run_sweep(seed, deadline, trace, run)
    else:
        run_cli(workload, deadline, trace, reference, run)
    if not trace:
        run.setup += [setup_probe(workload, seed)
                      for _ in range(SETUP_PROBES - len(run.setup))]
    return run, per_layer(run) if trace else end_to_end(run)


def report(workload: str, run: Run, metrics: dict, meta: dict) -> None:
    """Human-readable block: metadata, every metric with unit and samples."""
    print(f"# workload {workload}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<52} {value:>14.6g} {unit:<6} n={samples}")
    if "task_p99_ms" in metrics:
        samples = metrics["task_p99_ms"][2]
        beyond = samples - math.ceil(0.99 * samples)
        note = "" if beyond >= 10 else ": fewer than ten, tail not resolved"
        print(f"# task_p99_ms: {beyond} of {samples} tasks beyond it"
              f"{note}")
    if "multiport.expansion_reuse" in metrics:
        inputs = metrics["multiport.input_configs"][0]
        distinct = metrics["multiport.distinct_input_configs"][0]
        print(f"# multiport.expansion_reuse = 1 - {distinct:g}/{inputs:g} "
              "input configurations per iteration")
    for error in run.errors[:worker.MAX_ERRORS]:
        print(f"# FAILED {error}")
    print(f"# {run.attempted - run.failed} of {run.attempted} "
          "tasks correct")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "statdisc" / "__init__.py").is_file():
        print(f"perfbench: no statdisc source under {SRC}", file=sys.stderr)
        return 2
    reference = checks.load_reference()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result_metrics = {}
    try:
        for workload in workloads:
            run, metrics = run_workload(workload, args.seed, args.seconds,
                                        bool(args.trace), reference)
            report(workload, run, metrics,
                   metadata(workload, args.seed, args.seconds,
                            bool(args.trace)))
            attempted += run.attempted
            failed += run.failed
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, (value, unit, _) in metrics.items():
                result_metrics[prefix + name] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
