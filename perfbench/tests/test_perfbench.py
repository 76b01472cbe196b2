"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The workload runs take about a minute: each runs once at minimal length.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibrate
import checks
import run
import sweep
import tracing
import worker
from tracing import Span

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_full_metric_set(workload, trace):
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_names()


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0, 0, None),
        Span(1, 0, "a", 1.0, 4.0, 0, None),
        Span(2, 1, "a.child", 2.0, 3.0, 0, None),
        # overlaps its sibling and sticks out past the root's end; only
        # the union of the children inside the parent is subtracted
        Span(3, 0, "b", 3.5, 6.0, 0, None),
        Span(4, 0, "c", 9.0, 11.0, 0, None),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - (5.0 + 1.0), 1: 2.0, 2: 1.0,
                                 3: 2.5, 4: 2.0})
    totals = tracing.summarize(spans)
    assert totals["root.self_s"] == pytest.approx(4.0)
    assert totals["a.calls"] == 1


def test_profile_is_mean_duration_per_call():
    spans = [Span(0, None, tracing.PROFILE, 0.0, 2.0, 0, ["boson", 3]),
             Span(1, None, tracing.PROFILE, 5.0, 9.0, 1, ["boson", 3])]
    metrics = tracing.layer_metrics(tracing.summarize(spans), iterations=1)
    assert metrics["scan.boson.n3_s"] == (3.0, "s")
    assert metrics["scan.fermion.n3_s"] == (0.0, "s")


def test_sweep_generator_is_deterministic_per_seed():
    assert sweep.generate(7) == sweep.generate(7)
    assert sweep.generate(7) != sweep.generate(8)
    def mix(tasks):
        return sorted((t["kind"], t.get("statistics", ""), t.get("n", 0))
                      for t in tasks)

    kinds = mix(sweep.generate(7))
    assert kinds == mix(sweep.generate(8))
    assert len(kinds) == sweep.TASKS


def test_sweep_mix_is_the_expected_share_of_each_draw():
    tasks = sweep.generate(7)
    def share(**fields):
        return sum(all(t.get(k) == v for k, v in fields.items())
                   for t in tasks) / len(tasks)

    for kind in ("aligned-mixed", "aligned-antialigned", "detect", "purify"):
        assert share(kind=kind) == 1 / 4
    for statistics in sweep.STATISTICS:
        for n in range(2, 6):
            assert share(kind="aligned-mixed", n=n,
                         statistics=statistics) == 1 / 32
        for kind in ("aligned-antialigned", "detect"):
            assert share(kind=kind, statistics=statistics) == 1 / 8


def test_reservoir_keeps_every_latency_equally_likely(monkeypatch):
    monkeypatch.setattr(worker, "RESERVOIR", 100)
    kept = worker.SweepRun(1, [])
    for latency in range(1000):
        kept._keep(float(latency))
    assert kept.seen == 1000 and len(kept.latencies) == 100
    # a uniform sample of 0..999: about a tenth of each hundred
    hundreds = [int(x) // 100 for x in kept.latencies]
    assert all(2 <= hundreds.count(h) <= 20 for h in range(10))


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(1000))


def test_clock_scales_work_by_kernel_time(monkeypatch):
    # a host on which the kernel takes twice its reference time
    monkeypatch.setattr(calibrate, "_time_kernel",
                        lambda: 2 * calibrate.REFERENCE_S)
    before = signal.getsignal(signal.SIGALRM)
    clock = calibrate.Clock()
    clock.start()
    _busy(0.35)
    clock.stop()
    assert clock.ticks >= 2
    assert clock.scaled == pytest.approx(0.5 * clock.raw)
    assert signal.getsignal(signal.SIGALRM) is before


def test_clock_leaves_kernel_time_out():
    clock = calibrate.Clock()
    clock.start()
    start = time.perf_counter()
    _busy(0.35)
    wall = time.perf_counter() - start
    clock.stop()
    assert clock.ticks >= 2
    # the kernel ran at least twice inside the wall time, and not in raw
    assert 0.5 * wall < clock.raw < wall
    assert clock.scaled > 0


def test_setup_probe_scales_by_bare_start(monkeypatch):
    monkeypatch.setattr(run, "bare_start", lambda: run.START_REFERENCE_S)
    plain = run.setup_probe("reproduce", 1)
    # a host on which a bare start takes a thousand times its reference
    monkeypatch.setattr(run, "bare_start",
                        lambda: 1000 * run.START_REFERENCE_S)
    scaled = run.setup_probe("reproduce", 1)
    assert 0 < scaled < plain / 100


def test_timed_cli_reports_its_time_and_passes_output_through():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["reproduce", "--format", "json"],
                 ["scan", "--n-max", "40", "--format", "json"]):
        plain = subprocess.run([sys.executable, "-m", "statdisc", *argv],
                               cwd=ROOT, env=env, capture_output=True)
        timed = subprocess.run([sys.executable, str(run.WORKER), "timed",
                                *argv], cwd=ROOT, env=env, capture_output=True)
        assert (timed.returncode, timed.stdout) == (plain.returncode,
                                                    plain.stdout)
        child = run.Child(timed.returncode, timed.stdout, timed.stderr,
                          1e9, 0.0)
        scaled, raw = run._elapsed(child)
        assert 0 < scaled < 1e9 and 0 < raw < 1e9
    assert plain.returncode == 65


def test_perturbed_cli_reference_is_counted_as_failure():
    reference = checks.load_reference()
    good = run.Run()
    run.run_cli("reproduce", time.perf_counter(), False, reference, good)
    assert good.attempted == 1 and good.errors == []

    reproduce = bytearray(reference["reproduce"])
    reproduce[-3] ^= 1
    bad = run.Run()
    run.run_cli("reproduce", time.perf_counter(), False,
                dict(reference, reproduce=bytes(reproduce)), bad)
    assert bad.attempted == 1 and len(bad.errors) == 1

    argv = checks.CLI_TASKS["classical"][1]
    key = " ".join(argv)
    stdout = json.dumps({"results": [
        {"name": k, "value": v} for k, v in reference["cli"][key].items()]})
    assert checks.check_cli(argv, 0, stdout.encode(), reference) == []
    rows = dict(reference["cli"][key])
    rows["classical success"] += 1e-9
    assert checks.check_cli(argv, 0, stdout.encode(),
                            dict(reference, cli={key: rows}))


def test_perturbed_sweep_reference_is_counted_as_failure():
    import statdisc

    distributions = checks.load_reference()["distributions"]
    tasks = [t for t in sweep.generate(5) if t["kind"] == "aligned-mixed"
             and t["statistics"] == "fermion" and t["n"] == 3][:3]
    results = [sweep.run_task(statdisc, t) for t in tasks]
    assert all(checks.check_sweep(t, r, distributions) == []
               for t, r in zip(tasks, results))
    perturbed = json.loads(json.dumps(distributions))
    mixed = perturbed["fermion"]["mixed3"]
    pattern = next(iter(mixed))
    mixed[pattern] += 1e-6
    assert all(checks.check_sweep(t, r, perturbed)
               for t, r in zip(tasks, results))
    assert checks.check_sweep(tasks[0], "Traceback ...", distributions)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [*SPEC["command"], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
