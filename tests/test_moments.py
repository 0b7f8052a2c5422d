import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaford._rng import stream
from alphaford.cladogram import StructureError
from alphaford.ford import build_comb_tree, sample_ford_tree
from alphaford.moments import (
    _row,
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


def test_kingman_univariate_index_must_be_an_integer():
    # no bool, float or string is read as an index; numpy integers are integers
    for k in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="k must be an integer"):
            kingman_univariate(k)
    assert kingman_univariate(np.int64(2)) == Fraction(1, 5)
    with pytest.raises(ValueError):
        kingman_univariate(-1)


def test_moment_degree_past_the_recursion_limit():
    k = sys.getrecursionlimit() + 100
    assert moment(0, (k, 0, 0)) == kingman_univariate(k)


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
    # index entries are integers: no float, string or bool is read as one
    for k in [(1.5, 0, 0), (2.0, 0, 0), ("2", 0, 0), "120", (True, 0, 0), (np.bool_(True), 1, 0)]:
        with pytest.raises(TypeError):
            moment("1/3", k)
    for k in [(1, 0), (1, 0, 0, 0), ()]:
        with pytest.raises(ValueError):
            moment("1/3", k)
    # numpy integers are integers
    assert moment("1/3", np.array([2, 0, 0])) == moment("1/3", (np.int32(2), np.uint8(0), 0)) == Fraction(1, 5)
    with pytest.raises(TypeError):
        exact_tree_moment(build_comb_tree(5), (0.5, 0, 0))


# -- generator action ----------------------------------------------------------


def omega_at(alpha, k, eta):
    """Omega f^k at the point eta, from the operator's definition: Wright-Fisher
    sum_ij eta_i (delta_ij - eta_j) d2_ij f, drift (2 - alpha) sum_i
    (1 - 3 eta_i) d_i f, corner jumps (2 - 3 alpha) sum_i (f(e_i) - f) and
    migration (alpha / 2) sum_{i != j} (f(theta_ij eta) - f(eta)) / eta_i, where
    theta_ij moves the mass of coordinate i onto coordinate j."""

    def f(x):
        return x[0] ** k[0] * x[1] ** k[1] * x[2] ** k[2]

    def d(orders):
        out = Fraction(1)
        for ki, o, x in zip(k, orders, eta):
            out *= math.perm(ki, o) * x ** max(ki - o, 0)
        return out

    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    out = sum(
        eta[i] * ((i == j) - eta[j]) * d(tuple(a + b for a, b in zip(units[i], units[j])))
        for i in range(3)
        for j in range(3)
    )
    out += (2 - alpha) * sum((1 - 3 * eta[i]) * d(units[i]) for i in range(3))
    out += (2 - 3 * alpha) * sum(f(e) - f(eta) for e in units)
    for i, j in itertools.permutations(range(3), 2):
        moved = list(eta)
        moved[j] += moved[i]
        moved[i] = 0
        out += alpha / 2 * (f(moved) - f(eta)) / eta[i]
    return out


SIMPLEX_POINTS = [
    (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(3, 11), Fraction(5, 13), 1 - Fraction(3, 11) - Fraction(5, 13)),
]


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
@pytest.mark.parametrize("k", [(1, 0, 0), (2, 0, 0), (1, 1, 0), (3, 2, 1), (0, 4, 2), (5, 0, 0)])
def test_generator_action_rederives_moments(alpha, k):
    """The expansion is Omega f^k as the operator defines it, and the moments
    solve its stationarity E[Omega f^k] = 0."""
    action = monomial_generator_action(alpha, k)
    for eta in SIMPLEX_POINTS:
        expanded = action.constant + sum(
            c * eta[0] ** j[0] * eta[1] ** j[1] * eta[2] ** j[2] for j, c in action.coefficients.items()
        )
        assert expanded == omega_at(alpha, k, eta)
    residual = action.constant + sum(c * moment(alpha, j) for j, c in action.coefficients.items())
    assert residual == 0


@pytest.mark.parametrize(
    "law, alpha", [(kingman_closed_form, 0), (crt_dirichlet_moment, Fraction(1, 2)), (comb_moment, 1)]
)
def test_generator_annihilates_the_closed_form_laws(law, alpha):
    for k in INDICES_S10:
        if sum(k) <= 8:
            action = monomial_generator_action(alpha, k)
            assert action.constant + sum(c * law(j) for j, c in action.coefficients.items()) == 0


def test_generator_integer_rows_by_hand():
    # 2 Omega = A0 + alpha A1; each part is (constant, {j: coefficient of f^j})
    rows = {
        (1, 0, 0): ((4, {(0, 0, 0): 4, (1, 0, 0): -24}), (-6, {(0, 0, 0): -2, (1, 0, 0): 24})),
        (2, 1, 0): (
            (0, {(1, 1, 0): 12, (2, 0, 0): 4, (2, 1, 0): -60}),
            (0, {(1, 1, 0): -4, (2, 0, 0): -3, (0, 1, 1): 1, (2, 1, 0): 36}),
        ),
        (0, 0, 2): (
            (4, {(0, 0, 1): 12, (0, 0, 2): -40}),
            (-6, {(0, 0, 1): -2, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 30}),
        ),
    }
    for k, (a0, a1) in rows.items():
        assert _row(k, 1, 0) == a0
        assert _row(k, 0, 1) == a1


def test_generator_top_coefficient_summed_from_the_pieces():
    for k in itertools.product(range(13), repeat=3):
        s = sum(k)
        if s <= 12:
            assert _row(k, 1, 0)[1][k] == -2 * (s + 3) * (s + 2)
            assert _row(k, 0, 1)[1][k] == 6 * (s + 3)
            for alpha in (Fraction(1, 3), Fraction(3, 4)):
                top = monomial_generator_action(alpha, k).coefficients[k]
                assert top == -(s + 3) * (s + 2 - 3 * alpha)


def test_moments_digest_to_degree_12():
    # pinned exact values: a change to Omega's rows or to the solve shows here
    h = hashlib.sha256()
    for alpha in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
        for k in itertools.product(range(13), repeat=3):
            if sum(k) <= 12:
                h.update(f"{alpha} {k} {moment(alpha, k)}\n".encode())
    assert h.hexdigest() == "eda738c40223802632e4a485acad4131afc98b3eaa753fac075a58a9ca05e72a"


def test_moments_digest_to_degree_30():
    # every sorted index of degree <= 30 at alpha = 1/3, as the benchmark's
    # exact pass reads them; pinned values, so a wrong row or solve shows
    h = hashlib.sha256()
    count = 0
    for s in range(31):
        for a in range(s // 3 + 1):
            for b in range(a, (s - a) // 2 + 1):
                k = (a, b, s - a - b)
                h.update(f"{k} {moment('1/3', k)}\n".encode())
                count += 1
    assert count == 1041
    assert h.hexdigest() == "c2532045701de9c6265a723c5c4a859a80888294aa9880b2f02ab693f7193b98"


def test_moment_past_the_int64_binomials():
    # C(80, 40) > 2**63: the migration weights of degree 80 need Python ints
    value = moment("1/3", (80, 0, 0))
    digest = hashlib.sha256(str(value).encode()).hexdigest()
    assert digest == "c5cff2be507af06629c91e0fe19738ed341bf9a1273e4182c6773a58b935a57c"


def test_alpha_zero_high_degree_matches_the_closed_form():
    # the alpha = 0 solve fills only the indices (40, 40, 40) dominates
    assert moment(0, (40, 40, 40)) == kingman_closed_form((40, 40, 40))


def test_generator_action_zero_index():
    action = monomial_generator_action("1/2", (0, 0, 0))
    # constants are harmonic: the expansion must evaluate to zero at stationarity
    assert action.constant + sum(action.coefficients.values()) * 1 == 0


def test_generator_action_first_moment_equation():
    # 2 Omega eta_1 = (4 - 6a) + (4 - 2a) - 24 (1 - a) eta_1, so E[eta_1] = 1/3
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        action = monomial_generator_action(alpha, (1, 0, 0))
        assert action.constant == 2 - 3 * alpha
        assert action.coefficients == {(0, 0, 0): 2 - alpha, (1, 0, 0): -12 * (1 - alpha)}
        assert action.constant + action.coefficients[(0, 0, 0)] + action.coefficients[(1, 0, 0)] / 3 == 0


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


def loop_tree_moment(tree, k) -> Fraction:
    """The per-vertex loop: every internal vertex, its counts in all six
    orderings, each term a^(k1+1) b^(k2+1) c^(k3+1) in Python ints."""
    n = tree.n
    acc = 0
    for counts in tree.component_counts().tolist():
        for a, b, c in itertools.permutations(counts):
            acc += a ** (k[0] + 1) * b ** (k[1] + 1) * c ** (k[2] + 1)
    return Fraction(acc, n ** sum(k) * n * (n - 1) * (n - 2))


INDICES_S6 = [k for k in itertools.product(range(7), repeat=3) if sum(k) <= 6]


@pytest.mark.parametrize("alpha", ["0", "1/2", "1", None])
def test_exact_tree_moment_matches_the_per_vertex_loop(alpha):
    # every index of degree <= 6 (unsorted ones too, each a different
    # assignment of exponents to the sorted powers); None is the comb
    for n in (3, 4, 7, 40, 2000):
        if alpha is None:
            ft = build_comb_tree(n)
        else:
            ft = sample_ford_tree(alpha, n, stream(50, n))
        for k in INDICES_S6:
            assert exact_tree_moment(ft, k) == loop_tree_moment(ft, k), (n, k)


def test_exact_tree_moment_of_a_deep_big_tree_matches_the_per_vertex_loop():
    # alpha = 1: about N / 2 distinct sorted count rows, powers far past 2^63
    ft = sample_ford_tree("1", 100_000, stream(51))
    for k in [(1, 0, 0), (2, 1, 0), (0, 3, 3), (1, 4, 1)]:
        assert exact_tree_moment(ft, k) == loop_tree_moment(ft, k), k


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
