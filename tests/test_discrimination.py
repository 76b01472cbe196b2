import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statdisc.core import CapacityError, DensityMatrix, symmetric_projector
from statdisc.discrimination import (DiscriminationReport, Hypothesis,
                                     aligned_vs_mixed_bound,
                                     beam_splitter_discrimination,
                                     helstrom_bound, map_strategy)
from statdisc.multiport import OutcomeDistribution, Statistics
from statdisc.states import aligned_mixture, antialigned_mixture, maximally_mixed

BOSON = Statistics.BOSON
FERMION = Statistics.FERMION


def pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def pair(rho0, rho1, p0=0.5):
    return (Hypothesis("H0", rho0, p0), Hypothesis("H1", rho1, 1.0 - p0))


# ------------------------------------------------------------ helstrom bound

def test_bound_for_identical_states_is_a_coin_flip():
    h0, h1 = pair(maximally_mixed(2), maximally_mixed(2))
    assert abs(helstrom_bound(h0, h1) - 0.5) < 1e-14


def test_bound_for_orthogonal_pure_states_is_certainty():
    h0, h1 = pair(pure([1, 0]), pure([0, 1]))
    assert abs(helstrom_bound(h0, h1) - 1.0) < 1e-14


def test_bound_for_the_two_headline_pairs():
    h0, h1 = pair(aligned_mixture(2), antialigned_mixture())
    assert abs(helstrom_bound(h0, h1) - 0.75) < 1e-12
    h0, h1 = pair(aligned_mixture(2), maximally_mixed(2))
    assert abs(helstrom_bound(h0, h1) - 0.625) < 1e-12


def test_bound_with_certain_prior_is_one():
    h0, h1 = pair(pure([1, 0]), pure([1, 1]), p0=1.0)
    assert abs(helstrom_bound(h0, h1) - 1.0) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_bound_beats_the_prior_guess(p0):
    h0, h1 = pair(aligned_mixture(2), maximally_mixed(2), p0=p0)
    bound = helstrom_bound(h0, h1)
    assert bound >= max(p0, 1.0 - p0) - 1e-12
    assert bound <= 1.0 + 1e-12


def test_bound_rejects_mismatched_dimensions():
    h0 = Hypothesis("H0", maximally_mixed(1), 0.5)
    h1 = Hypothesis("H1", maximally_mixed(2), 0.5)
    with pytest.raises(ValueError, match="register"):
        helstrom_bound(h0, h1)


def test_bound_rejects_bad_priors():
    h0 = Hypothesis("H0", maximally_mixed(1), 0.7)
    h1 = Hypothesis("H1", maximally_mixed(1), 0.7)
    with pytest.raises(ValueError, match="sum to one"):
        helstrom_bound(h0, h1)


def test_hypothesis_rejects_bad_label_and_prior():
    with pytest.raises(ValueError, match="label"):
        Hypothesis("H2", maximally_mixed(1), 0.5)
    with pytest.raises(ValueError, match="prior"):
        Hypothesis("H0", maximally_mixed(1), 1.5)


@pytest.mark.parametrize("decide", [
    pytest.param(helstrom_bound, id="helstrom_bound"),
    pytest.param(lambda h0, h1: beam_splitter_discrimination(h0, h1, BOSON),
                 id="beam_splitter_discrimination")])
def test_hypotheses_must_come_in_label_order(decide):
    # the strategy's "H1" guesses would name the hypothesis labelled "H0"
    h0, h1 = pair(aligned_mixture(2), maximally_mixed(2))
    for first, second in ((h1, h0), (h0, h0)):
        with pytest.raises(ValueError, match="order"):
            decide(first, second)


# ----------------------------------------------------------- closed-form bound

@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_matches_eigendecomposition_route(n):
    h0, h1 = pair(aligned_mixture(n), maximally_mixed(n))
    closed = aligned_vs_mixed_bound(n)
    assert abs(closed - helstrom_bound(h0, h1)) < 1e-10
    assert abs(closed - (1.0 - (n + 1) / 2.0 ** (n + 1))) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_equals_the_projector_route_exactly(n):
    # the symmetric subspace dimension read off the projector's trace
    projector = symmetric_projector(n)
    d, d_s = projector.shape[0], round(float(projector.trace().real))
    assert aligned_vs_mixed_bound(n) == 0.5 * (1.0 + (d - d_s) / d)


def test_closed_form_refuses_empty_and_oversized_registers():
    with pytest.raises(ValueError, match="at least 1"):
        aligned_vs_mixed_bound(0)
    with pytest.raises(CapacityError):
        aligned_vs_mixed_bound(9)


# -------------------------------------------------------------- map strategy

def test_map_strategy_on_a_hand_checked_example():
    d0 = OutcomeDistribution({(1, 1): 1.0})
    d1 = OutcomeDistribution({(1, 1): 0.5, (2, 0): 0.25, (0, 2): 0.25})
    strategy, success = map_strategy(d0, d1)
    assert strategy == {(1, 1): "H0", (2, 0): "H1", (0, 2): "H1"}
    assert abs(success - 0.75) < 1e-14


def test_map_strategy_breaks_ties_toward_h0():
    d0 = OutcomeDistribution({(1, 1): 0.5, (2, 0): 0.5})
    d1 = OutcomeDistribution({(1, 1): 0.5, (0, 2): 0.5})
    strategy, success = map_strategy(d0, d1)
    assert strategy[(1, 1)] == "H0"
    assert abs(success - 0.75) < 1e-14


def test_map_strategy_with_lopsided_priors_ignores_the_rare_hypothesis():
    d0 = OutcomeDistribution({(1, 1): 1.0})
    d1 = OutcomeDistribution({(2, 0): 1.0})
    _, success = map_strategy(d0, d1, priors=(0.9, 0.1))
    assert abs(success - 1.0) < 1e-14
    _, success = map_strategy(d0, d0, priors=(0.9, 0.1))
    assert abs(success - 0.9) < 1e-14


def test_map_strategy_rejects_mismatched_outcome_spaces():
    d0 = OutcomeDistribution({(1, 1): 1.0})
    d1 = OutcomeDistribution({(1, 1, 1): 1.0})
    with pytest.raises(ValueError, match="outcome space"):
        map_strategy(d0, d1)


def test_map_strategy_rejects_bad_priors():
    d0 = OutcomeDistribution({(1, 1): 1.0})
    with pytest.raises(ValueError, match="sum to one"):
        map_strategy(d0, d0, priors=(0.6, 0.6))


# ------------------------------------------------------------------- reports

def test_report_rejects_strategy_beating_the_bound():
    with pytest.raises(ValueError, match="exceeds"):
        DiscriminationReport(n=2, statistics=FERMION, p_helstrom=0.6,
                             p_bs=0.7, strategy={})


def test_report_gap_is_derived_from_the_two_probabilities():
    report = DiscriminationReport(n=2, statistics=FERMION, p_helstrom=0.75,
                                  p_bs=0.625, strategy={})
    assert report.gap == 0.75 - 0.625
    with pytest.raises(TypeError):
        DiscriminationReport(n=2, statistics=FERMION, p_helstrom=0.75,
                             p_bs=0.625, gap=0.125, strategy={})


def test_report_rejects_below_coin_flip():
    with pytest.raises(ValueError, match="below"):
        DiscriminationReport(n=2, statistics=FERMION, p_helstrom=0.6,
                             p_bs=0.4, strategy={})


# ------------------------------------------------- beam splitter discrimination

def test_headline_pair_values_and_swapped_strategies():
    h0, h1 = pair(aligned_mixture(2), antialigned_mixture())
    fermion = beam_splitter_discrimination(h0, h1, FERMION)
    boson = beam_splitter_discrimination(h0, h1, BOSON)
    assert abs(fermion.p_bs - 0.75) < 1e-12
    assert abs(boson.p_bs - 0.75) < 1e-12
    assert fermion.strategy[(1, 1)] == "H0"
    assert boson.strategy[(1, 1)] == "H1"
    for pattern in fermion.strategy:
        assert fermion.strategy[pattern] != boson.strategy[pattern]


def test_aligned_vs_mixed_meets_the_bound_for_two_particles():
    h0, h1 = pair(aligned_mixture(2), maximally_mixed(2))
    for stats in (FERMION, BOSON, "fermion", "boson"):
        report = beam_splitter_discrimination(h0, h1, stats)
        assert report.statistics is Statistics(stats)
        assert abs(report.p_bs - 0.625) < 1e-12
        assert abs(report.gap) < 1e-12


def test_unequal_priors_keep_strategy_below_bound():
    rng = np.random.default_rng(31)
    h_states = (aligned_mixture(2), maximally_mixed(2))
    for _ in range(20):
        p0 = float(rng.uniform(0.0, 1.0))
        h0, h1 = pair(*h_states, p0=p0)
        for stats in (FERMION, BOSON):
            report = beam_splitter_discrimination(h0, h1, stats)
            assert report.p_bs <= report.p_helstrom + 1e-10
            assert report.p_bs >= max(p0, 1.0 - p0) - 1e-10


def test_beam_splitter_rejects_non_qubit_registers():
    with pytest.raises(ValueError, match="qubit"):
        h0 = Hypothesis("H0", DensityMatrix(np.eye(3) / 3), 0.5)
        h1 = Hypothesis("H1", DensityMatrix(np.eye(3) / 3), 0.5)
        beam_splitter_discrimination(h0, h1, BOSON)
