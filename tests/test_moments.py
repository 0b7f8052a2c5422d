import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaford._rng import stream
from alphaford.cladogram import StructureError
from alphaford.ford import build_comb_tree, sample_ford_tree
from alphaford.moments import (
    comb_moment,
    crt_dirichlet_moment,
    estimate_mass_moments,
    exact_tree_moment,
    kingman_beta_moment,
    kingman_closed_form,
    kingman_univariate,
    moment,
    monomial_generator_action,
)

ALPHA_GRID = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]

INDICES_S10 = [k for k in itertools.product(range(11), repeat=3) if sum(k) <= 10]


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_universal_low_moments(alpha):
    assert moment(alpha, (0, 0, 0)) == 1
    assert moment(alpha, (1, 0, 0)) == Fraction(1, 3)
    assert moment(alpha, (2, 0, 0)) == Fraction(1, 5)
    assert moment(alpha, (1, 1, 0)) == Fraction(1, 15)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_closed_alpha_formulas(alpha):
    assert moment(alpha, (3, 0, 0)) == (11 - 7 * alpha) / (15 * (5 - 3 * alpha))
    assert moment(alpha, (4, 0, 0)) == (37 - 25 * alpha) / (63 * (5 - 3 * alpha))
    assert moment(alpha, (5, 0, 0)) == (145 - 165 * alpha + 44 * alpha**2) / (
        42 * (5 - 3 * alpha) * (7 - 3 * alpha)
    )


def test_hand_frozen_values():
    # degree 3 mixed moments, worked out by hand from the recursion
    for alpha in ALPHA_GRID:
        assert moment(alpha, (2, 1, 0)) == (2 - alpha) / (15 * (5 - 3 * alpha))
        assert moment(alpha, (1, 1, 1)) == (1 - alpha) / (15 * (5 - 3 * alpha))


def test_kingman_closed_form_small_values():
    assert kingman_closed_form((0, 0, 0)) == 1
    assert kingman_closed_form((1, 0, 0)) == Fraction(1, 3)
    # 4 * (6/24) * (2/120 + 2/120 + 1/6) = 1/5
    assert kingman_closed_form((2, 0, 0)) == Fraction(1, 5)
    assert kingman_closed_form((1, 1, 1)) == Fraction(1, 75)


def test_kingman_univariate_values():
    assert kingman_univariate(0) == 1
    assert kingman_univariate(1) == Fraction(72, 216) == Fraction(1, 3)
    assert kingman_univariate(2) == Fraction(144, 720) == Fraction(1, 5)
    assert kingman_univariate(3) == Fraction(264, 1800) == Fraction(11, 75)


def test_kingman_beta_moment_values():
    assert kingman_beta_moment((0, 0, 0)) == 1
    assert kingman_beta_moment((1, 1, 0)) == Fraction(1, 15)


def test_alpha_zero_closed_forms_s10():
    for k in INDICES_S10:
        m0 = moment(0, k)
        assert m0 == kingman_closed_form(k)
        assert m0 == kingman_beta_moment(k)


def test_alpha_zero_univariate_to_12():
    for k in range(13):
        assert moment(0, (k, 0, 0)) == kingman_univariate(k)


def test_crt_dirichlet_s10():
    assert crt_dirichlet_moment((1, 0, 0)) == Fraction(1, 3)
    assert crt_dirichlet_moment((3, 0, 0)) == Fraction(1, 7)
    assert crt_dirichlet_moment((1, 1, 0)) == Fraction(1, 15)
    for k in INDICES_S10:
        assert moment(Fraction(1, 2), k) == crt_dirichlet_moment(k)


def test_comb_beta_s10():
    assert comb_moment((1, 0, 0)) == Fraction(1, 3)
    assert comb_moment((2, 0, 0)) == Fraction(1, 5)  # (1/6) * 4 * (3/10)
    assert comb_moment((1, 1, 1)) == 0
    for k in INDICES_S10:
        assert moment(1, k) == comb_moment(k)


def test_moment_symmetric_in_index():
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1)):
        for k in [(3, 1, 0), (2, 2, 1), (4, 0, 2)]:
            vals = {moment(alpha, p) for p in itertools.permutations(k)}
            assert len(vals) == 1


def test_marginal_consistency():
    # eta1^k = eta1^k (eta1 + eta2 + eta3) in expectation
    for alpha in ALPHA_GRID:
        for k in range(9):
            assert moment(alpha, (k, 0, 0)) == moment(alpha, (k + 1, 0, 0)) + 2 * moment(
                alpha, (k, 1, 0)
            )


def test_degree_one_base_case_at_alpha_one():
    # the recursion denominator vanishes there; the value is forced by symmetry
    assert moment(1, (1, 0, 0)) == Fraction(1, 3)
    assert moment(1, (0, 1, 0)) == Fraction(1, 3)


def test_moment_input_validation():
    with pytest.raises(ValueError):
        moment("3/2", (1, 0, 0))
    with pytest.raises(ValueError):
        moment("1/2", (1, -1, 0))
    with pytest.raises(TypeError):
        moment(0.3, (1, 0, 0))  # floats are ambiguous; demand exact input


# -- generator action ----------------------------------------------------------


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
@pytest.mark.parametrize("k", [(1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 2, 1), (0, 4, 2), (5, 0, 0)])
def test_generator_action_rederives_moments(alpha, k):
    action = monomial_generator_action(alpha, k)
    if action.coefficients[k] == 0:
        # degree 1 at alpha = 1: stationarity gives 0 = 0, so check only that
        # the known moments do annihilate the expansion
        residual = action.constant + sum(
            c * moment(alpha, j) for j, c in action.coefficients.items()
        )
        assert residual == 0
    else:
        assert action.solve_for_top(lambda j: moment(alpha, j)) == moment(alpha, k)


def test_generator_action_zero_index():
    action = monomial_generator_action("1/2", (0, 0, 0))
    # constants are harmonic: the expansion must evaluate to zero at stationarity
    assert action.constant + sum(action.coefficients.values()) * 1 == 0


def test_generator_action_first_moment_equation():
    # 4(3 - 3a) E = 2(1 - a) + (2 - 3a) + a, i.e. E = 1/3
    action = monomial_generator_action(0, (1, 0, 0))
    assert action.solve_for_top(lambda j: Fraction(1)) == Fraction(1, 3)


def test_generator_action_normalization_identity():
    # total drain on f^k equals (S+3)(S+2-3a) minus the lower-order returns
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for k in [(2, 1, 0), (3, 3, 3), (4, 0, 0)]:
            action = monomial_generator_action(alpha, k)
            s = sum(k)
            assert action.coefficients[k] == -(s + 3) * (s + 2 - 3 * alpha)


def test_generator_action_interpolates_linearly():
    # the generator family is affine in alpha
    for k in [(2, 0, 0), (3, 1, 0), (2, 2, 2)]:
        a0 = monomial_generator_action(0, k)
        a1 = monomial_generator_action(Fraction(1, 2), k)
        for alpha in (Fraction(1, 4), Fraction(1)):
            mixed = monomial_generator_action(alpha, k)
            w0, w1 = 1 - 2 * alpha, 2 * alpha
            keys = set(a0.coefficients) | set(a1.coefficients) | set(mixed.coefficients)
            for j in keys:
                assert mixed.coefficients.get(j, 0) == w0 * a0.coefficients.get(
                    j, 0
                ) + w1 * a1.coefficients.get(j, 0)
            assert mixed.constant == w0 * a0.constant + w1 * a1.constant


# -- estimators -----------------------------------------------------------------


def bf_tree_moment(tree, k) -> Fraction:
    """All distinct ordered leaf triples, straight from component masses."""
    n = tree.n
    acc = Fraction(0)
    for u in itertools.permutations(range(1, n + 1), 3):
        eta = tree.component_masses(u)
        acc += eta[0] ** k[0] * eta[1] ** k[1] * eta[2] ** k[2]
    return acc / (n * (n - 1) * (n - 2))


@pytest.mark.parametrize("k", [(1, 0, 0), (2, 0, 0), (1, 1, 1), (3, 1, 0)])
def test_exact_tree_moment_against_brute_force(k, rng):
    from conftest import random_cladogram
    from alphaford.tree import FiniteMeasureTree

    for m in (5, 8):
        ft = FiniteMeasureTree(random_cladogram(rng, m))
        assert exact_tree_moment(ft, k) == bf_tree_moment(ft, k)


def test_estimate_constant_index_is_exact():
    ft = build_comb_tree(50)
    est = estimate_mass_moments(ft, [(0, 0, 0)], 500, stream(9))
    assert est[(0, 0, 0)][0] == 1.0


@pytest.mark.parametrize("triples", [0, 1, -3])
def test_estimate_rejects_fewer_than_two_triples(triples):
    with pytest.raises(ValueError):
        estimate_mass_moments(build_comb_tree(20), [(1, 0, 0)], triples, stream(12))


def test_moments_of_a_two_leaf_tree_are_rejected():
    # a distinct triple needs 3 leaves; both paths say so instead of dividing by 0
    ft = build_comb_tree(2)
    with pytest.raises(StructureError):
        exact_tree_moment(ft, (1, 0, 0))
    with pytest.raises(StructureError):
        estimate_mass_moments(ft, [(1, 0, 0)], 10, stream(12))


def test_estimate_matches_exact_tree_moment():
    ft = sample_ford_tree("1/2", 300, stream(10))
    ks = [(1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 0, 0)]
    est = estimate_mass_moments(ft, ks, 40000, stream(11))
    for k in ks:
        mean, se = est[k]
        exact = float(exact_tree_moment(ft, k))
        assert abs(mean - exact) < 4 * se, (k, mean, exact, se)


def test_estimate_first_moment_is_third_for_any_tree():
    # E[eta_1] = 1/3 conditionally on every tree, by exchangeability
    for n in (10, 57):
        ft = build_comb_tree(n)
        assert exact_tree_moment(ft, (1, 0, 0)) == Fraction(1, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_moment_bounds_property(seed, k1, k2, k3):
    rng = np.random.default_rng(seed)
    alpha = Fraction(int(rng.integers(0, 9)), 8)
    val = moment(alpha, (k1, k2, k3))
    assert 0 <= val <= 1
    # monotone in each exponent since eta lives in [0, 1]
    assert val <= moment(alpha, (max(k1 - 1, 0), k2, k3))
