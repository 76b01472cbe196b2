"""Capture the reference outputs the benchmark checks against.

Run once, from the repository root, at a commit whose numbers are trusted:

    python3 perfbench/capture_reference.py

It stores the exact ``reproduce --format json`` bytes, every row of the
other CLI tasks, and the arm-count distributions the sweep checks rebuild
its results from.  A change that alters statdisc's numbers must not
recapture: the point of the references is that they stay fixed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import statdisc as sd  # noqa: E402
from checks import CLI_TASKS, REFERENCE_DIR  # noqa: E402


def _cli(argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "statdisc", *argv],
                          cwd=ROOT, env=env, check=True,
                          capture_output=True).stdout


def _distribution(internal, statistics) -> dict:
    dist = sd.interfere(internal, statistics)
    return {",".join(map(str, k)): p
            for k, p in sorted(dist.probabilities.items())}


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    cli = {}
    for tasks in CLI_TASKS.values():
        for argv in tasks:
            out = _cli(argv)
            if argv[0] == "reproduce":
                (REFERENCE_DIR / "reproduce.json").write_bytes(out)
            else:
                cli[" ".join(argv)] = {row["name"]: row["value"]
                                       for row in json.loads(out)["results"]}
    distributions = {}
    for statistics in sd.Statistics:
        dists = {"antialigned": _distribution(sd.antialigned_mixture(),
                                              statistics)}
        for n in range(2, 6):
            dists[f"aligned{n}"] = _distribution(sd.aligned_mixture(n),
                                                 statistics)
            dists[f"mixed{n}"] = _distribution(sd.maximally_mixed(n),
                                               statistics)
        for i in range(4):
            dists[f"basis{i}"] = _distribution(np.eye(4)[i], statistics)
        distributions[statistics.value] = dists
    text = json.dumps({"cli": cli, "distributions": distributions},
                      indent=1, sort_keys=True)
    (REFERENCE_DIR / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
