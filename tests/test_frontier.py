"""Checks at eight particles, the largest register the Fock kernel takes.

Together they take about 20 s and 0.8 GB on a 2-core Xeon, with the
frontier cases of the other test modules, so the ``frontier`` marker (see
``pyproject.toml``) keeps them out of a default run.  Run them with
``python -m pytest -m frontier``.
"""

import hashlib

import pytest

from statdisc.core import TOL
from statdisc.multiport import Statistics, interfere
from statdisc.states import aligned_mixture, maximally_mixed

from oracles import factorised_distribution

pytestmark = pytest.mark.frontier


@pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("state", [aligned_mixture, maximally_mixed])
def test_the_factorised_oracle_matches_interfere_at_eight_particles(
        stats, state):
    kernel = interfere(state(8), stats)
    oracle = factorised_distribution(state(8), stats)
    patterns = set(kernel.probabilities) | set(oracle.probabilities)
    assert max(abs(kernel.probability(p) - oracle.probability(p))
               for p in patterns) <= TOL


# SHA-256 of the boson n = 8 mixed distribution, one line "pattern p.hex()"
# per pattern: 256 one-input members in 256 groups
_BOSON_MIXED_8 = (
    "cc512cfaeee4a641d29d7ba6249f0ea89dd1ece9c68a78d42de0058d7f8dc43c")


def test_the_boson_mixed_distribution_at_eight_particles_is_pinned():
    d = interfere(maximally_mixed(8), Statistics.BOSON)
    text = "".join(f"{pattern} {p.hex()}\n"
                   for pattern, p in d.probabilities.items())
    assert hashlib.sha256(text.encode()).hexdigest() == _BOSON_MIXED_8


# SHA-256 of the boson n = 8 aligned distribution, the same lines: its
# largest member, 70 inputs and about 7.6 M terms, is over the group budget
# and merged in chunks
_BOSON_ALIGNED_8 = (
    "7bb429f34d5018f897ee6a3bb0088577946f1beb1bca782182a06e228cd42e9d")


def test_the_boson_aligned_distribution_at_eight_particles_is_pinned():
    d = interfere(aligned_mixture(8), Statistics.BOSON)
    text = "".join(f"{pattern} {p.hex()}\n"
                   for pattern, p in d.probabilities.items())
    assert hashlib.sha256(text.encode()).hexdigest() == _BOSON_ALIGNED_8
