"""Exact subtree-mass moments of the alpha-Ford measure tree.

The component-mass triple eta at a sampled branch point evolves under a
generator Omega on the mass polynomials f^k = eta_1^k1 eta_2^k2 eta_3^k3.
Twice Omega is A0 + alpha A1 with integer coefficients, and apart from f^k
itself and a constant every monomial of 2 Omega f^k has degree |k| - 1, so
stationarity, E[Omega f^k] = 0, gives the moments E[eta^k] degree by degree
over exact rationals.  Also: the closed forms at alpha = 0 (Yule/coalescent),
alpha = 1/2 (Dirichlet(1/2,1/2,1/2)) and alpha = 1 (comb, a symmetrized
Beta(2,2) on the boundary of the simplex), and Monte Carlo estimators on
finite trees for cross-checking.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from alphaford._rng import parse_alpha
from alphaford.cladogram import StructureError
from alphaford.tree import FiniteMeasureTree

__all__ = [
    "moment",
    "kingman_closed_form",
    "kingman_univariate",
    "kingman_beta_moment",
    "comb_moment",
    "crt_dirichlet_moment",
    "GeneratorAction",
    "monomial_generator_action",
    "estimate_mass_moments",
    "exact_tree_moment",
]

MultiIndex = tuple[int, int, int]


def _norm_index(k) -> MultiIndex:
    """k as a tuple of Python ints: integer entries (numpy's too) are read
    through ``operator.index``, and bools, floats and strings raise
    ``TypeError``."""
    k = tuple(k)
    if any(isinstance(x, (bool, np.bool_)) or not hasattr(x, "__index__") for x in k):
        raise TypeError(f"multi-index entries must be integers, got {k}")
    k = tuple(map(operator.index, k))
    if len(k) != 3 or any(x < 0 for x in k):
        raise ValueError(f"multi-index must be 3 nonnegative integers, got {k}")
    return k


def _dec(k: MultiIndex, i: int) -> MultiIndex:
    return k[:i] + (k[i] - 1,) + k[i + 1 :]


# The weights of the pieces of 2 Omega (Wright-Fisher, drift, corner jumps,
# migration) in A0 and in A1: the drift is 2 - alpha, the corner jumps
# 2 - 3 alpha and the migration alpha / 2 times their operators below.
_PARTS = ((2, 4, 4, 0), (0, -2, -6, 1))


def _diagonal(s: int, part: int) -> int:
    """The coefficient of f^k in part ``part`` of 2 Omega f^k; it depends on
    the degree s = |k| alone."""
    wright_fisher, drift, corner, _ = _PARTS[part]
    return -(wright_fisher * s * (s - 1) + 3 * drift * s + 3 * corner)


def _generator_row(k: MultiIndex, part: int) -> tuple[int, dict]:
    """Part ``part`` of 2 Omega f^k (A0 for 0, A1 for 1) in integers: its
    constant and its nonzero coefficients {j: w} on the monomials f^j, keyed
    by unsorted index, f^k itself included."""
    wright_fisher, drift, corner, migration = _PARTS[part]
    s = sum(k)
    row = Counter({k: _diagonal(s, part)})
    # Wright-Fisher sum_ij eta_i (delta_ij - eta_j) d2_ij and drift
    # sum_i (1 - 3 eta_i) d_i; their f^k terms are in the diagonal
    for i in range(3):
        if k[i]:
            row[_dec(k, i)] += wright_fisher * k[i] * (k[i] - 1) + drift * k[i]
    # corner jumps sum_i (f(e_i) - f): f(e_i) = 1 iff the other two exponents
    # vanish
    constant = corner * k.count(s)
    # migration sum_{i != j} eta_i^{-1} (f o theta_ij - f), theta_ij moving
    # the mass of i onto j: a binomial expansion when k_i = 0, else -f^{k - e_i}
    if migration:
        for i, j in itertools.permutations(range(3), 2):
            if k[i]:
                row[_dec(k, i)] -= migration
                continue
            for p in range(1, k[j] + 1):
                kk = list(k)
                kk[i] += p - 1
                kk[j] -= p
                row[tuple(kk)] += migration * math.comb(k[j], p)
    # boundary reflection (1/2) sum_{i != j} (1{eta_j = 0} - 1{eta_i = 0}) d_i:
    # nothing, both indicators vanish on the open simplex
    return constant, {j: w for j, w in row.items() if w}


def _scaled_row(k: MultiIndex, p: int, q: int) -> tuple[int, dict]:
    """2q Omega f^k at alpha = p/q: q A0 + p A1, with A1 built only if p != 0."""
    constant, row = 0, Counter()
    for part, x in ((0, q), (1, p)):
        if x:
            c, coefficients = _generator_row(k, part)
            constant += x * c
            for j, w in coefficients.items():
                row[j] += x * w
    return constant, row


def _lower_terms(k: MultiIndex, p: int, q: int) -> tuple[int, dict]:
    """2q Omega f^k at alpha = p/q without its f^k term, on sorted indices."""
    constant, row = _scaled_row(k, p, q)
    lower = Counter()
    for j, w in row.items():
        if j != k:
            lower[tuple(sorted(j))] += w
    return constant, {j: w for j, w in lower.items() if w}


def _numerator(alpha: Fraction, k: MultiIndex, nums: dict, dens: list) -> int:
    """E[eta^k] * dens[|k|] through ``nums``, keyed by sorted index.

    If 2q Omega f^k = c - t_s f^k + sum_j w_j f^j at alpha = p/q and degree
    s >= 2, then t_s = 2 (s + 3)((s + 2) q - 3p) and stationarity gives
    E[eta^k] = (c + sum_j w_j E[eta^j]) / t_s, so over D_s = D_(s-1) t_s the
    numerator is c D_(s-1) + sum_j w_j N_j.  An explicit stack replaces
    recursion, so any degree is reachable: an index waits under the lower
    numerators it needs until they are cached."""
    p, q = alpha.numerator, alpha.denominator
    top = tuple(sorted(k))
    while len(dens) <= sum(top):
        s = len(dens)
        dens.append(-dens[-1] * (q * _diagonal(s, 0) + p * _diagonal(s, 1)))
    stack: list = [(top, None)]
    while stack:
        k, terms = stack.pop()
        if k in nums:
            continue
        terms = terms or _lower_terms(k, p, q)
        missing = [(j, None) for j in terms[1] if j not in nums]
        if missing:
            stack += [(k, terms), *missing]
            continue
        constant, lower = terms
        nums[k] = constant * dens[sum(k) - 1] + sum(w * nums[j] for j, w in lower.items())
    return nums[top]


# alpha -> (numerators by sorted index, denominators by degree); degree 1 is
# 1/3 by exchangeability, since t_1 vanishes at alpha = 1
_MOMENT_CACHES: dict[Fraction, tuple[dict, list]] = {}


def moment(alpha, k) -> Fraction:
    """E[eta^k] under the stationary subtree-mass law at parameter alpha.

    Read off the generator's integer rows: E[Omega f^k] = 0 solved degree by
    degree in Python integers over one denominator per degree, and one
    ``Fraction`` built at the end.  It runs on an explicit stack, so any
    degree is reachable.  Exact for every rational alpha in [0, 1].
    """
    alpha = parse_alpha(alpha)
    k = _norm_index(k)
    nums, dens = _MOMENT_CACHES.setdefault(alpha, ({(0, 0, 0): 1, (0, 0, 1): 1}, [1, 3]))
    return Fraction(_numerator(alpha, k, nums, dens), dens[sum(k)])


def kingman_closed_form(k) -> Fraction:
    """Closed form of the alpha = 0 moments:
    4 * prod Gamma(k_j + 2) / Gamma(S + 3) * sum over pairs
    Gamma(k_i + k_j + 1) / Gamma(k_i + k_j + 4)."""
    k = _norm_index(k)
    s = sum(k)
    f = math.factorial
    prefactor = Fraction(4 * f(k[0] + 1) * f(k[1] + 1) * f(k[2] + 1), f(s + 2))
    pair_sum = sum(
        (Fraction(f(k[i] + k[j]), f(k[i] + k[j] + 3)) for i, j in ((0, 1), (0, 2), (1, 2))),
        Fraction(0),
    )
    return prefactor * pair_sum


def kingman_univariate(k: int) -> Fraction:
    """Univariate alpha = 0 moment E[eta_1^k]:
    (2k(k(k+6)+11) + 36) / (3(k+1)(k+2)^2(k+3))."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return Fraction(2 * k * (k * (k + 6) + 11) + 36, 3 * (k + 1) * (k + 2) ** 2 * (k + 3))


def _beta_product_moment(k: MultiIndex) -> Fraction:
    # moments of (B12*B22, B12*(1-B22), 1-B12), B12 ~ Beta(1,2), B22 ~ Beta(2,2)
    f = math.factorial
    s = sum(k)
    return Fraction(
        12 * f(k[0] + 1) * f(k[1] + 1) * f(k[2] + 1) * f(k[0] + k[1]),
        f(s + 2) * f(k[0] + k[1] + 3),
    )


def kingman_beta_moment(k) -> Fraction:
    """alpha = 0 moments through the independent-Beta representation,
    symmetrized over the six coordinate permutations."""
    k = _norm_index(k)
    acc = sum((_beta_product_moment(p) for p in itertools.permutations(k)), Fraction(0))
    return acc / 6


def _beta22_moment(a: int, b: int) -> Fraction:
    # E[x^a (1-x)^b] for x ~ Beta(2, 2)
    f = math.factorial
    return Fraction(6 * f(a + 1) * f(b + 1), f(a + b + 3))


def comb_moment(k) -> Fraction:
    """alpha = 1 moments: symmetrized law of (x, 1-x, 0) with x ~ Beta(2, 2);
    any coordinate with positive exponent mapped to the zero slot kills the
    term."""
    k = _norm_index(k)
    acc = Fraction(0)
    for p in itertools.permutations(k):
        if p[2] == 0:
            acc += _beta22_moment(p[0], p[1])
    return acc / 6


def _rising(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def crt_dirichlet_moment(k) -> Fraction:
    """alpha = 1/2 moments: Dirichlet(1/2, 1/2, 1/2) mixed moments
    prod (1/2)_{k_i} / (3/2)_S in rising factorials."""
    k = _norm_index(k)
    half = Fraction(1, 2)
    num = Fraction(1)
    for ki in k:
        num *= _rising(half, ki)
    return num / _rising(Fraction(3, 2), sum(k))


@dataclass(frozen=True)
class GeneratorAction:
    """Action of the mass-polynomial generator on a monomial, re-expanded over
    monomials: Omega f^k = constant + sum_j coefficients[j] * f^j, a
    polynomial identity with unsorted indices j and no zero coefficient."""

    alpha: Fraction
    k: MultiIndex
    constant: Fraction
    coefficients: dict


def monomial_generator_action(alpha, k) -> GeneratorAction:
    """The generator applied to f^k = eta^k at alpha: the row of f^k in
    (A0 + alpha A1) / 2, the one encoding that :func:`moment` also reads.

    Its pieces: a Wright-Fisher diffusion term, a drift toward the simplex
    center, jumps to the corners, mass migration between coordinates, and a
    boundary reflection whose indicator factors vanish identically on the open
    simplex where this polynomial identity is read off.
    """
    alpha = parse_alpha(alpha)
    k = _norm_index(k)
    p, q = alpha.numerator, alpha.denominator
    constant, row = _scaled_row(k, p, q)
    coefficients = {j: Fraction(w, 2 * q) for j, w in row.items() if w}
    return GeneratorAction(alpha, k, Fraction(constant, 2 * q), coefficients)


def estimate_mass_moments(
    tree: FiniteMeasureTree,
    indices,
    triples: int,
    rng: np.random.Generator,
) -> dict[MultiIndex, tuple[float, float]]:
    """Monte Carlo moments of the component-mass vector of ``tree``.

    Samples ``triples`` uniformly random *distinct* leaf triples (the mass
    vector is defined for pairwise distinct points; at the tree sizes used
    for testing the O(1/N) gap to iid sampling is far below the Monte Carlo
    noise).  Returns ``{k: (mean, standard error)}``.
    """
    if triples < 2:
        raise ValueError(f"need at least 2 triples for a standard error, got {triples}")
    indices = [_norm_index(k) for k in indices]
    draws = tree.sample_distinct_leaves(triples, 3, rng)
    counts = tree.triple_component_counts(draws[:, 0], draws[:, 1], draws[:, 2])
    eta = counts / tree.n
    out = {}
    for k in indices:
        vals = eta[:, 0] ** k[0] * eta[:, 1] ** k[1] * eta[:, 2] ** k[2]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(triples))
        out[k] = (mean, se)
    return out


def exact_tree_moment(tree: FiniteMeasureTree, k) -> Fraction:
    """Exact E[eta^k] over uniform distinct leaf triples of a fixed tree.

    Sums over internal vertices: a distinct triple has its branch point at v
    with one sample in each component, so each ordered component assignment
    contributes (product of counts) * eta^k exactly.
    """
    k = _norm_index(k)
    n = tree.n
    if n < 3:
        raise StructureError(f"component masses need 3 distinct leaves, the tree has {n}")
    acc = 0
    for counts in tree.internal_component_counts().values():
        for a, b, c in itertools.permutations(counts):
            acc += a ** (k[0] + 1) * b ** (k[1] + 1) * c ** (k[2] + 1)
    return Fraction(acc, n ** sum(k) * n * (n - 1) * (n - 2))
