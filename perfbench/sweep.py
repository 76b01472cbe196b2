"""The sweep workload: a seeded stream of small library calls.

``generate`` is pure Python; ``run_task`` makes the calls a library user
would make, building the states as part of the task.
"""

from __future__ import annotations

import math
import random

# Tasks of each kind in one pass: the expected counts of 512 draws from
# the mix the workload is defined by.  A draw picks one of the four kinds
# (aligned vs mixed, aligned vs antialigned, entanglement detection,
# purification) with equal chance; aligned vs mixed then picks n from 2..5,
# and every kind but purification picks the statistics, all uniformly.
# Only the parameters and the order come from the seed: a boson n=5 task
# costs about 150 times a two-particle one, so drawing the kinds too
# would make the pass time depend on the seed.
PER_KIND = 128
STATISTICS = ("boson", "fermion")
# (kind, n, tasks per statistics)
MIX = (
    *(("aligned-mixed", n, PER_KIND // 4 // 2) for n in range(2, 6)),
    ("aligned-antialigned", 2, PER_KIND // 2),
    ("detect", 2, PER_KIND // 2),
)
# purification involves no interference, hence no statistics
PURIFY = PER_KIND
TASKS = len(STATISTICS) * sum(count for _, _, count in MIX) + PURIFY


def generate(seed: int) -> list[dict]:
    """Task list drawn from ``seed``; the same seed gives the same list."""
    rng = random.Random(seed)
    tasks = []
    for statistics in STATISTICS:
        for kind, n, count in MIX:
            for _ in range(count):
                task = {"kind": kind, "statistics": statistics, "n": n}
                if kind == "detect":
                    task["schmidt"] = 0.5 * rng.random()
                else:
                    task["prior0"] = rng.random()
                tasks.append(task)
    for _ in range(PURIFY):
        # random() < 1, so phi stays inside [0, 2*pi)
        tasks.append({"kind": "purify", "r": rng.random(),
                      "theta": math.pi * rng.random(),
                      "phi": math.tau * rng.random()})
    rng.shuffle(tasks)
    return tasks


def run_task(sd, task: dict) -> list[float]:
    """Execute one task through the statdisc package ``sd``.

    Discrimination tasks return [p_bs, p_helstrom]; detection returns
    [p_bs]; purification returns [success, x, y, z] of the purified
    Bloch vector.
    """
    kind = task["kind"]
    if kind == "purify":
        rho = sd.qubit_density(task["r"],
                               sd.BlochDirection(task["theta"], task["phi"]))
        purified, success = sd.purify_symmetric(rho)
        return [success, *(float(x) for x in sd.bloch_vector(purified))]
    statistics = sd.Statistics(task["statistics"])
    if kind in ("aligned-mixed", "aligned-antialigned"):
        n, prior0 = task["n"], task["prior0"]
        other = (sd.maximally_mixed(n) if kind == "aligned-mixed"
                 else sd.antialigned_mixture())
        report = sd.beam_splitter_discrimination(
            sd.Hypothesis("H0", sd.aligned_mixture(n), prior0),
            sd.Hypothesis("H1", other, 1.0 - prior0), statistics)
        return [report.p_bs, report.p_helstrom]
    psi = sd.TwoQubitPureState.from_schmidt(task["schmidt"])
    return [sd.detect_entanglement(psi, statistics)]
