"""Exact subtree-mass moments of the alpha-Ford measure tree.

The component-mass triple eta at a sampled branch point evolves under a
generator Omega on the mass polynomials f^k = eta_1^k1 eta_2^k2 eta_3^k3.
Twice Omega is A0 + alpha A1 with integer coefficients, and apart from f^k
itself and a constant every monomial of 2 Omega f^k has degree |k| - 1, so
stationarity, E[Omega f^k] = 0, gives the moments E[eta^k] degree by degree
over exact rationals.  One numpy builder writes the rows of a whole degree at
once (Python ints in object arrays), and the solve takes one degree per step
from them: every index of the degree at alpha != 0, where the migration terms
reach all of them, and only the indices the request dominates at alpha = 0.
Also: the closed forms at alpha = 0 (Yule/coalescent),
alpha = 1/2 (Dirichlet(1/2,1/2,1/2)) and alpha = 1 (comb, a symmetrized
Beta(2,2) on the boundary of the simplex), and Monte Carlo estimators on
finite trees for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from alphaford._rng import parse_alpha
from alphaford.cladogram import StructureError, double_factorial
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
    if type(k) is tuple and len(k) == 3 and type(k[0]) is type(k[1]) is type(k[2]) is int:
        if min(k) >= 0:
            return k  # the common case, already normal
    k = tuple(k)
    if any(isinstance(x, (bool, np.bool_)) or not hasattr(x, "__index__") for x in k):
        raise TypeError(f"multi-index entries must be integers, got {k}")
    k = tuple(map(operator.index, k))
    if len(k) != 3 or any(x < 0 for x in k):
        raise ValueError(f"multi-index must be 3 nonnegative integers, got {k}")
    return k


# The weights of the pieces of 2 Omega (Wright-Fisher, drift, corner jumps,
# migration) in A0 and in A1: the drift is 2 - alpha, the corner jumps
# 2 - 3 alpha and the migration alpha / 2 times their operators below.
_PARTS = ((2, 4, 4, 0), (0, -2, -6, 1))

# the ordered coordinate pairs (i, j), i != j, of the migrations theta_ij
_PAIRS = np.array(list(itertools.permutations(range(3), 2)))


def _pieces(x0: int, x1: int) -> tuple[int, ...]:
    """The piece weights of x0 A0 + x1 A1, in the order of ``_PARTS``."""
    return tuple(x0 * a + x1 * b for a, b in zip(*_PARTS))


def _diagonal(s: int, x0: int, x1: int) -> int:
    """The coefficient of f^k in (x0 A0 + x1 A1) f^k; it depends on the degree
    s = |k| alone."""
    wright_fisher, drift, corner, _ = _pieces(x0, x1)
    return -(wright_fisher * s * (s - 1) + 3 * drift * s + 3 * corner)


@functools.cache
def _binomials(n: int) -> tuple[int, ...]:
    """C(n, p) for p = 1..n as Python ints, which pass int64 from n = 67 on.
    Cached for the life of the process: n never exceeds the largest degree
    solved at alpha != 0."""
    return tuple(math.comb(n, p) for p in range(1, n + 1))


def _generator_rows(ks: np.ndarray, x0: int, x1: int):
    """The rows of x0 A0 + x1 A1 on the monomials f^k, one per row of ``ks``,
    an (R, 3) integer array of indices of one degree s.

    At alpha = p/q, (x0, x1) = (q, p) gives 2q Omega, (1, 0) gives A0 and
    (0, 1) gives A1.  Returns ``(constants, rows, targets, weights)``: the R
    constants, and the lower terms, weights[t] f^targets[t] in row rows[t],
    ascending by row, on unsorted indices of degree s - 1.  The f^k term
    itself is left out: its coefficient is ``_diagonal(s, x0, x1)``.  The
    weights are Python ints in an object array; a target can repeat within a
    row, and the migration terms are built only if x1 != 0.
    """
    wright_fisher, drift, corner, migration = _pieces(x0, x1)
    s = int(ks[0].sum())
    # corner jumps sum_i (f(e_i) - f): f(e_i) = 1 iff the other two exponents
    # vanish; their f^k terms are in the diagonal
    constants = (ks == s).sum(axis=1).astype(object) * corner
    # Wright-Fisher sum_ij eta_i (delta_ij - eta_j) d2_ij, drift
    # sum_i (1 - 3 eta_i) d_i and the migration terms -f^(k - e_i) of the
    # two theta_ij with k_i > 0 all land on k - e_i
    rows, i = np.nonzero(ks)
    n = ks[rows, i].astype(object)
    weights = n * (wright_fisher * (n - 1) + drift) - 2 * migration
    targets = ks[rows]
    targets[np.arange(len(rows)), i] -= 1
    if migration:
        # migration sum_{i != j} eta_i^{-1} (f o theta_ij - f), theta_ij moving
        # the mass of i onto j: when k_i = 0 the binomial expansion of
        # (eta_i + eta_j)^k_j / eta_i puts C(k_j, p) on k_i = p - 1,
        # k_j - p, p = 1..k_j
        r, pair = np.nonzero((ks[:, _PAIRS[:, 0]] == 0) & (ks[:, _PAIRS[:, 1]] > 0))
        i, j = _PAIRS[pair].T
        n = ks[r, j]
        p = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n) + 1
        r = np.repeat(r, n)
        term = np.arange(len(p))
        t = ks[r]
        t[term, np.repeat(i, n)] = p - 1
        t[term, np.repeat(j, n)] -= p
        binomials = np.array([c for m in n.tolist() for c in _binomials(m)], dtype=object)
        rows = np.concatenate([rows, r])
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        targets = np.concatenate([targets, t])[order]
        weights = np.concatenate([weights, migration * binomials])[order]
    # boundary reflection (1/2) sum_{i != j} (1{eta_j = 0} - 1{eta_i = 0}) d_i:
    # nothing, both indicators vanish on the open simplex
    return constants, rows, targets, weights


def _row(k: MultiIndex, x0: int, x1: int) -> tuple[int, dict]:
    """The row of f^k in x0 A0 + x1 A1: its constant and its nonzero
    coefficients {j: w} on the monomials f^j, keyed by unsorted index, f^k
    itself included."""
    constants, _, targets, weights = _generator_rows(np.array([k]), x0, x1)
    row = Counter({k: _diagonal(sum(k), x0, x1)})
    for j, w in zip(map(tuple, targets.tolist()), weights):
        row[j] += w
    return constants[0], {j: w for j, w in row.items() if w}


def _generator_row(k: MultiIndex, part: int) -> tuple[int, dict]:
    """Part ``part`` of 2 Omega f^k in integers: A0 for 0, A1 for 1."""
    return _row(k, 1 - part, part)


def _sort_dec(k: MultiIndex, i: int) -> MultiIndex:
    """k - e_i, sorted."""
    return tuple(sorted(k[:i] + (k[i] - 1,) + k[i + 1 :]))


def _sorted_indices(s: int) -> list[MultiIndex]:
    """Every sorted index a <= b <= c of degree s."""
    return [(a, b, s - a - b) for a in range(s // 3 + 1) for b in range(a, (s - a) // 2 + 1)]


class _Moments:
    """E[eta^k] at one alpha = p/q, on sorted indices k.

    If 2q Omega f^k = c - t_s f^k + sum_j w_j f^j at degree s >= 2, then
    t_s = 2 (s + 3)((s + 2) q - 3p) and stationarity gives
    E[eta^k] = (c + sum_j w_j E[eta^j]) / t_s, so over D_s = D_(s-1) t_s the
    numerator is N_k = c D_(s-1) + sum_j w_j N_j, with every j of degree
    s - 1.  A cache miss solves this for a batch of indices one degree at a
    time, lowest first, from one ``_generator_rows`` call, one object-array
    product and one ``np.add.reduceat``; no degree is out of reach.
    """

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q
        # degree 1 is 1/3 by exchangeability, since t_1 vanishes at alpha = 1
        self.nums = {(0, 0, 0): 1, (0, 0, 1): 1}
        self.dens = [1, 3]
        # the Fractions handed out, one per sorted index
        self.values: dict[MultiIndex, Fraction] = {}

    def value(self, k: MultiIndex) -> Fraction:
        value = self.values.get(k)
        if value is None:
            if k not in self.nums:
                self._fill(k)
            value = self.values[k] = Fraction(self.nums[k], self.dens[sum(k)])
        return value

    def _missing(self, k: MultiIndex) -> list[list[MultiIndex]]:
        """The indices that the solve for k still needs, by degree, lowest
        first.  The cached set is closed downward, so they are found from k.

        At alpha != 0 the migration terms reach every lower index, so whole
        degrees are filled: those from len(dens) on, since ``_fill`` extends
        the denominators only over the degrees it fills.  At alpha = 0 the
        lower terms of f^k are on the k - e_i, so only the indices that k
        dominates are needed: (k, 0, 0) costs one per degree.
        """
        if self.p:
            return [_sorted_indices(s) for s in range(len(self.dens), sum(k) + 1)]
        levels = [[k]]
        while True:
            below = {_sort_dec(j, i) for j in levels[-1] for i in range(3) if j[i]}
            below = [j for j in below if j not in self.nums]
            if not below:
                return levels[::-1]
            levels.append(below)

    def _fill(self, k: MultiIndex) -> None:
        p, q, nums, dens = self.p, self.q, self.nums, self.dens
        levels = self._missing(k)
        while len(dens) <= sum(k):
            dens.append(-dens[-1] * _diagonal(len(dens), q, p))
        for ks in levels:
            s = sum(ks[0])
            constants, rows, targets, weights = _generator_rows(np.array(ks), q, p)
            targets.sort(axis=1)
            lower = np.array([nums[j] for j in zip(*targets.T.tolist())], dtype=object)
            # every row has a term, since s >= 2, so no start repeats
            starts = np.searchsorted(rows, np.arange(len(ks)))
            solved = constants * dens[s - 1] + np.add.reduceat(weights * lower, starts)
            nums.update(zip(ks, solved.tolist()))


# (p, q) of alpha = p/q -> its moments
_MOMENT_CACHES: dict[tuple[int, int], _Moments] = {}


def moment(alpha, k) -> Fraction:
    """E[eta^k] under the stationary subtree-mass law at parameter alpha.

    Read off the generator's integer rows: E[Omega f^k] = 0 solved one
    degree at a time in Python integers over one denominator per degree, so
    any degree is reachable.  One ``Fraction`` is built and cached per
    (alpha, sorted index).  Exact for every rational alpha in [0, 1].
    """
    alpha = parse_alpha(alpha)
    k = tuple(sorted(_norm_index(k)))
    key = (alpha.numerator, alpha.denominator)
    cache = _MOMENT_CACHES.get(key)
    if cache is None:
        cache = _MOMENT_CACHES[key] = _Moments(*key)
    return cache.value(k)


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


def kingman_beta_moment(k) -> Fraction:
    """alpha = 0 moments through the independent-Beta representation,
    symmetrized over the six coordinate permutations.

    For one permutation (a, b, c) of k the law of (B12 B22, B12 (1 - B22),
    1 - B12), B12 ~ Beta(1, 2), B22 ~ Beta(2, 2), has the moment
    12 (a + 1)! (b + 1)! (c + 1)! (a + b)! / ((S + 2)! (a + b + 3)!); the six
    are summed in integers over the common denominator (S + 2)! (S + 3)!.
    """
    k = _norm_index(k)
    f = math.factorial
    s = sum(k)
    total = sum(f(a + b) * (f(s + 3) // f(a + b + 3)) for a, b, _ in itertools.permutations(k))
    # 12 / 6: the Beta normalization over the six permutations
    numerator = 2 * f(k[0] + 1) * f(k[1] + 1) * f(k[2] + 1) * total
    return Fraction(numerator, f(s + 2) * f(s + 3))


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


def crt_dirichlet_moment(k) -> Fraction:
    """alpha = 1/2 moments: Dirichlet(1/2, 1/2, 1/2) mixed moments
    prod (1/2)_{k_i} / (3/2)_S in rising factorials, which is
    prod (2 k_i - 1)!! / (2S + 1)!! in integers."""
    k = _norm_index(k)
    numerator = math.prod(double_factorial(2 * ki - 1) for ki in k)
    return Fraction(numerator, double_factorial(2 * sum(k) + 1))


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
    q = alpha.denominator
    constant, row = _row(k, q, alpha.numerator)
    coefficients = {j: Fraction(w, 2 * q) for j, w in row.items()}
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

    A row (a, b, c) of ``tree.component_counts()`` adds the sum over its six
    orderings of a^p b^q c^r, (p, q, r) = k + 1: for p >= q >= r that is
    (abc)^r (s_x s_y - s_(x+y)), x = p - r, y = q - r, with the power sums
    s_j = a^j + b^j + c^j (s_0 = 3), in Python ints once per distinct sorted
    row, times its multiplicity."""
    k = _norm_index(k)
    n = tree.n
    if n < 3:
        raise StructureError(f"component masses need 3 distinct leaves, the tree has {n}")
    counts = np.sort(tree.component_counts(), axis=1)
    rows, mult = np.unique(counts[:, 0] * n + counts[:, 1], return_counts=True)
    r, q, p = sorted(x + 1 for x in k)
    x, y, xy = p - r, q - r, p + q - 2 * r
    acc = 0
    for row, w in zip(rows.tolist(), mult.tolist()):
        a, b = divmod(row, n)
        c = n - a - b
        acc += w * (a * b * c) ** r * (
            (a**x + b**x + c**x) * (a**y + b**y + c**y) - a**xy - b**xy - c**xy
        )
    return Fraction(acc, n ** sum(k) * n * (n - 1) * (n - 2))
