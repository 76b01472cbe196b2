"""Child process of the benchmark: the process that does the measured work.

    worker.py setup <workload> <seed>
        import statdisc (and, for sweep, generate the task list), print
        "ready", exit.
    worker.py timed <argv...>
        run one CLI invocation as ``python -m statdisc <argv...>`` does,
        and write its time after ``import statdisc``, in reference seconds
        (see calibrate.py) and in plain seconds, as the last line of
        stderr.
    worker.py cli <task> <argv...>
        run one CLI invocation with tracing on; print one JSON object with
        the exit code, the captured stdout, its time in plain seconds and
        the trace totals.
    worker.py sweep <seed> <seconds> <trace 0|1>
        run the sweep task list in a closed loop for about ``seconds``,
        checking every result; print one JSON object with the timings, the
        checks and, with tracing, the trace totals.

statdisc is found through PYTHONPATH, which the benchmark points at the
checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import sweep

SRC = Path(__file__).resolve().parent.parent / "src"

# Marks the line of stderr on which ``timed`` reports its time.
ELAPSED = "perfbench-elapsed"
# Latencies a sweep run keeps for its percentiles.  The buffer is filled
# when it is allocated, so the worker's memory does not grow with the
# number of passes; past this many samples it holds a uniform sample of
# them all.
RESERVOIR = 1 << 16
# Failure messages a run keeps; the failures are all counted.
MAX_ERRORS = 20


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of a sorted sequence: the smallest value
    with q% of the values at or below it."""
    return float(ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)])


def _import_statdisc():
    import statdisc
    import statdisc.cli  # noqa: F401 -- what a CLI user loads

    if Path(statdisc.__file__).resolve().parent.parent != SRC:
        sys.exit(f"statdisc imported from {statdisc.__file__}, not {SRC}")
    return statdisc


def setup(workload: str, seed: int) -> None:
    _import_statdisc()
    if workload == "sweep":
        sweep.generate(seed)
    print("ready", flush=True)


def timed_cli(argv: list[str]) -> None:
    sd = _import_statdisc()
    clock = calibrate.Clock()
    clock.start()
    try:
        code = sd.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        clock.stop()
    print(f"{ELAPSED} {clock.scaled!r} {clock.raw!r}", file=sys.stderr)
    sys.exit(code)


def traced_cli(task: int, argv: list[str]) -> None:
    from tracing import Tracer

    sd = _import_statdisc()
    tracer = Tracer()
    tracer.install()
    tracer.task = task
    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = sd.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    elapsed = perf_counter() - start
    tracer.uninstall()
    print(json.dumps({"exit": code, "stdout": captured.getvalue(),
                      "elapsed": elapsed, "totals": tracer.totals()}))


class SweepRun:
    """What the sweep process keeps: bounded whatever the number of passes."""

    def __init__(self, seed: int, tasks: list[dict]):
        import numpy as np

        self.tasks = tasks
        self.distributions = checks.load_reference()["distributions"]
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.latencies = np.full(RESERVOIR, math.nan)
        self.seen = 0
        self._rng = random.Random(seed)
        self.totals: dict[str, float] = {}

    def run_pass(self, sd, kind: str, tracer, now) -> None:
        """Run and check every task once, timed by the clock ``now``."""
        latencies, results = [], []
        start = now()
        for i, task in enumerate(self.tasks):
            if tracer:
                tracer.task = i
            t0 = now()
            try:
                result = sweep.run_task(sd, task)
            except Exception:  # noqa: BLE001 -- a failed task is counted
                result = traceback.format_exc(limit=3)
            latencies.append(now() - t0)
            results.append(result)
        wall = now() - start
        for i, (task, result) in enumerate(zip(self.tasks, results)):
            self.attempted += 1
            errors = checks.check_sweep(task, result, self.distributions)
            if errors:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"sweep task {i} {task}: "
                                       f"{'; '.join(errors)}")
        if kind == "warmup":
            return
        self.walls[kind].append(wall)
        if kind == "untraced":
            for latency in latencies:
                self._keep(latency)

    def _keep(self, latency: float) -> None:
        """Reservoir sampling: every latency so far is equally likely to
        be in the buffer."""
        slot = (self.seen if self.seen < RESERVOIR
                else self._rng.randrange(self.seen + 1))
        if slot < RESERVOIR:
            self.latencies[slot] = latency
        self.seen += 1

    def summary(self) -> dict:
        kept = self.latencies[:min(self.seen, RESERVOIR)]
        kept.sort()
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "walls": self.walls,
                "latencies": self.seen, "p50": percentile(kept, 50),
                "p99": percentile(kept, 99), "totals": self.totals}


def sweep_loop(seed: int, seconds: float, trace: bool) -> None:
    """Warm-up pass, then passes until the next one would overrun, each
    in its own order drawn from ``seed``.

    Untraced, the passes are timed in reference seconds by a
    ``calibrate.Clock``.  With tracing, untraced and traced passes
    alternate, so the tracing overhead is measured on the same warm
    process, and every pass is timed in plain seconds, so that no kernel
    timing lands inside a span.
    """
    deadline = perf_counter() + seconds
    sd = _import_statdisc()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    run = SweepRun(seed, sweep.generate(seed))
    order = random.Random(f"sweep-order-{seed}")
    start = perf_counter()
    run.run_pass(sd, "warmup", None, perf_counter)
    longest = perf_counter() - start
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    clock = calibrate.Clock()
    if not trace:
        clock.start()
    try:
        for i in itertools.count():
            kind = kinds[i % len(kinds)]
            # a new order every pass, so that the metrics do not hang on
            # which tasks one order happens to put after the slow ones
            order.shuffle(run.tasks)
            start = perf_counter()
            if kind == "traced":
                tracer.reset()
                tracer.install()
            run.run_pass(sd, kind, tracer if kind == "traced" else None,
                         perf_counter if trace else clock.read)
            if kind == "traced":
                tracer.uninstall()
                for name, value in tracer.totals().items():
                    run.totals[name] = run.totals.get(name, 0.0) + value
            longest = max(longest, perf_counter() - start)
            if perf_counter() + longest > deadline and i + 1 >= len(kinds):
                break
    finally:
        if not trace:
            clock.stop()
    print(json.dumps(run.summary()))


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]))
    elif mode == "timed":
        timed_cli(argv[1:])
    elif mode == "cli":
        traced_cli(int(argv[1]), argv[2:])
    elif mode == "sweep":
        sweep_loop(int(argv[1]), float(argv[2]), argv[3] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
