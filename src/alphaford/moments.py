"""Exact subtree-mass moments of the alpha-Ford measure tree.

The stationary law of the component-mass triple at a sampled branch point has
moments E[eta_1^k1 * eta_2^k2 * eta_3^k3] that satisfy a closed recursion in
the total degree.  This module implements that recursion over exact
rationals, the closed forms available at alpha = 0 (Yule/coalescent),
alpha = 1/2 (Dirichlet(1/2,1/2,1/2)) and alpha = 1 (comb, a symmetrized
Beta(2,2) on the boundary of the simplex), plus Monte Carlo estimators on
finite trees for cross-checking.
"""

from __future__ import annotations

import itertools
import math
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

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _norm_index(k) -> MultiIndex:
    k = tuple(int(x) for x in k)
    if len(k) != 3 or any(x < 0 for x in k):
        raise ValueError(f"multi-index must be 3 nonnegative integers, got {k}")
    return k


def _dec(k: MultiIndex, i: int, by: int = 1) -> MultiIndex:
    out = list(k)
    out[i] -= by
    return tuple(out)


def _terms(alpha: Fraction, k: MultiIndex):
    """The recursion for E[eta^k] at total degree s: E[eta^k] is (c +
    sum of w E[eta^j]) / ((s + 3)(s + 2 - 3 alpha)), returned as c, the
    (w, j) pairs, each j of degree s - 1 and sorted (the moments are
    exchangeable), and the divisor.  For s <= 1 the value is c itself."""
    s = sum(k)
    if s == 0:
        return Fraction(1), [], 1
    if s == 1:
        # forced by exchangeability; also the only point where the recursion
        # denominator (s + 2 - 3*alpha) can vanish (at alpha = 1)
        return Fraction(1, 3), [], 1
    terms = [((k[i] + 1) * (k[i] - alpha), tuple(sorted(_dec(k, i)))) for i in range(3) if k[i]]
    constant = Fraction(0)
    if 2 - 3 * alpha:
        zero_pairs = sum(1 for i, j in ((0, 1), (1, 2), (2, 0)) if k[i] == 0 and k[j] == 0)
        constant += (2 - 3 * alpha) * zero_pairs
    if alpha:
        half_alpha = alpha / 2
        for i in range(3):
            if k[i] == 0:
                for j in range(3):
                    if j != i and k[j]:
                        for p in range(1, k[j] + 1):
                            kk = list(k)
                            kk[i] += p - 1
                            kk[j] -= p
                            terms.append((half_alpha * math.comb(k[j], p), tuple(sorted(kk))))
    return constant, terms, (s + 3) * (s + 2 - 3 * alpha)


def _moment(alpha: Fraction, k: MultiIndex, cache: dict) -> Fraction:
    """E[eta^k] through ``cache``, keyed by sorted index.  An explicit stack
    replaces recursion, so the degree is not bounded by the interpreter's
    recursion limit: an index is evaluated once every lower moment it needs
    is cached, and until then it waits under them."""
    top = tuple(sorted(k))
    stack: list = [(top, None)]
    while stack:
        k, recursion = stack.pop()
        if k in cache:
            continue
        recursion = recursion or _terms(alpha, k)
        missing = [(j, None) for _, j in recursion[1] if j not in cache]
        if missing:
            stack += [(k, recursion), *missing]
            continue
        constant, terms, divisor = recursion
        cache[k] = (constant + sum(w * cache[j] for w, j in terms)) / divisor
    return cache[top]


_MOMENT_CACHES: dict[Fraction, dict] = {}


def moment(alpha, k) -> Fraction:
    """E[eta^k] under the stationary subtree-mass law at parameter alpha.

    Memoized top-down recursion; every recursive term lowers the total degree
    by one, so it bottoms out at the constants.  It runs on an explicit
    stack, so any degree is reachable.  Exact for every rational
    alpha in [0, 1].
    """
    alpha = parse_alpha(alpha)
    k = _norm_index(k)
    cache = _MOMENT_CACHES.setdefault(alpha, {})
    return _moment(alpha, k, cache)


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
    monomials: Omega f^k = constant + sum_j coefficients[j] * f^j.

    Setting the stationary expectation of this expression to zero and solving
    for E[f^k] reproduces the moment recursion, which is how the expansion is
    tested.
    """

    alpha: Fraction
    k: MultiIndex
    constant: Fraction
    coefficients: dict

    def solve_for_top(self, resolve) -> Fraction:
        """E[f^k] from stationarity, resolving lower moments via ``resolve``."""
        acc = self.constant
        top = self.coefficients[self.k]
        for j, c in self.coefficients.items():
            if j != self.k:
                acc += c * resolve(j)
        return -acc / top


def monomial_generator_action(alpha, k) -> GeneratorAction:
    """Expand the generator applied to f^k = eta^k over monomials.

    The five pieces: a Wright-Fisher diffusion term, a drift toward the
    simplex center, jumps to the corners, mass migration between coordinates,
    and a boundary reflection whose indicator factors vanish identically on
    the open simplex where this polynomial identity is read off.
    """
    alpha = parse_alpha(alpha)
    k = _norm_index(k)
    coeffs: dict[MultiIndex, Fraction] = {}
    constant = Fraction(0)

    def add(idx: MultiIndex, c: Fraction) -> None:
        if c:
            coeffs[idx] = coeffs.get(idx, Fraction(0)) + c

    # Wright-Fisher: sum_ij eta_i (delta_ij - eta_j) d2_ij f
    for i in range(3):
        for j in range(3):
            if k[i] and k[j]:
                c = (k[i] - (1 if i == j else 0)) * k[j]
                if i == j:
                    add(_dec(k, i), Fraction(c))
                add(k, Fraction(-c))
    # drift: (2 - alpha) sum_i (1 - 3 eta_i) d_i f
    for i in range(3):
        if k[i]:
            add(_dec(k, i), (2 - alpha) * k[i])
            add(k, -3 * (2 - alpha) * k[i])
    # corner jumps: (2 - 3 alpha) sum_i (f(e_i) - f); f(e_i) = 1 iff the other
    # two exponents vanish
    for i in range(3):
        if all(k[j] == 0 for j in range(3) if j != i):
            constant += 2 - 3 * alpha
    add(k, -3 * (2 - 3 * alpha))
    # migration: (alpha/2) sum_{i != j} eta_i^{-1} (f o theta_ij - f); on
    # monomials: binomial expansion when k_i = 0, else -f^{k - e_i}
    for i in range(3):
        for j in range(3):
            if j == i:
                continue
            if k[i] == 0:
                for p in range(1, k[j] + 1):
                    kk = list(k)
                    kk[i] += p - 1
                    kk[j] -= p
                    add(tuple(kk), alpha / 2 * math.comb(k[j], p))
            else:
                add(_dec(k, i), -alpha / 2)
    # boundary reflection: (alpha/2) sum_{i != j} (1{eta_j = 0} - 1{eta_i = 0}) d_i f
    # contributes nothing: both indicators are identically zero on (0, 1)^3

    return GeneratorAction(alpha, k, constant, coeffs)


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
    acc = Fraction(0)
    for counts in tree.internal_component_counts().values():
        for perm in itertools.permutations(counts):
            weight = perm[0] * perm[1] * perm[2]
            acc += weight * Fraction(
                perm[0] ** k[0] * perm[1] ** k[1] * perm[2] ** k[2], n ** sum(k)
            )
    return acc / (n * (n - 1) * (n - 2))
