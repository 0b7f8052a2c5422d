"""Static samplers and exact laws of the alpha-Ford family.

The alpha-Ford model grows a cladogram by repeatedly picking an edge with
weight 1 - alpha (external) or alpha (internal), inserting the next leaf in
its middle, and finally permuting the leaf labels.  alpha = 0 is the
Yule/coalescent tree, alpha = 1/2 the uniform cladogram, alpha = 1 the comb.
The growth draws one block of uniforms up front, since the edge counts of
every step are known, so no step makes a scalar draw.  Each draw names an
edge by its lower end in the tree rooted at leaf 1, which fixes every
step's target before any tree exists, and the parents follow in numpy
from one stable sort of the steps by target and a few rounds of pointer
jumping, with no per-step Python loop.  The growth returns its edges as
an (E, 2) int64 array, which :class:`Cladogram` validates in numpy.

Exact probabilities on the space of m-cladograms are computed by the
one-leaf-removal recursion

    P_m(t) = (1/m) * sum_k P_{m-1}(t minus leaf k)
             * ((1-alpha) if k is a cherry else alpha) / (m - 1 - 3*alpha),

with uniform base case at m = 4 (insertion into the unique 3-cladogram sees
three equal-weight external edges, which also sidesteps the vanishing
denominator at alpha = 1, m = 4).  Each step is linear in alpha, so the law
is stored once per m as integer coefficient arrays in alpha: a numerator
per state over one common denominator.  A ``Fraction`` appears only when
one alpha is evaluated, in Python ints, so every rational alpha is exact.
The deletion check is an identity between the same integer arrays, and both
read the deletion table and cherry flags of the split-mask state table of
:mod:`alphaford.cladogram`; neither builds a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from alphaford._rng import parse_alpha
from alphaford.cladogram import (
    MAX_ENUMERATION_LEAVES,
    Cladogram,
    StructureError,
    _integer,
    enumerate_cladograms,
)
from alphaford.tree import FiniteMeasureTree

__all__ = [
    "ExactDistribution",
    "sample_ford_cladogram",
    "sample_ford_tree",
    "sample_kingman_cladogram",
    "build_comb_tree",
    "exact_distribution",
    "deletion_stability_check",
]


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law on the m-cladograms, keyed by canonical key; the table
    lists the states in the order of ``enumerate_cladograms(m)``.  The law
    is exchangeable, so the states of one unlabeled class (and any others
    of equal probability) share one ``Fraction`` object."""

    alpha: Fraction
    m: int
    table: dict

    def as_vector(self, states) -> list[Fraction]:
        if any(t.m != self.m for t in states):
            raise StructureError(f"this law is on {self.m}-cladograms")
        return [self.table[t.key] for t in states]

    def total(self) -> Fraction:
        return sum(self.table.values(), Fraction(0))


def _grow_edges(alpha: Fraction, n_leaves: int, rng: np.random.Generator):
    """Run the weighted growth from the 2-leaf tree to ``n_leaves`` leaves.

    Returns the (parent id, child id) rows of the 2n - 3 edges as an
    (E, 2) int64 array, rooted at leaf 1; leaves are labeled 1..n in
    insertion order, internal vertices -1, -2, ...  Step s = 1..n - 2
    inserts leaf s + 2 and its parent -s in the middle of one edge.  The
    edge counts of every step are known in advance (k external edges at k
    leaves, one at k = 2, and k - 3 internal ones), so one block of
    uniforms, two per step, fixes every class pick and within-class index.
    When the total edge weight vanishes (alpha = 1 while only external edges
    exist) the next edge is drawn uniformly among the external ones.

    Each index names an edge by its lower end, so every step's target is
    known before any tree exists: external index j is the edge above leaf
    j + 1, except that j = 0 is the edge above the top, leaf 1's neighbour;
    internal index i is the edge above the i-th internal vertex in creation
    order, the top skipped.  The top is -t for the last earlier step t that
    took external index 0, or leaf 2 before any did.  A stable sort of the
    steps by target gives each vertex its final parent, the last vertex
    inserted above it, and each inserted vertex its parent at birth: the
    previous one inserted above the same target, or else that target's own
    parent at birth (-(l - 2) for leaf l > 2, leaf 1 for leaf 2).  Those
    references point to earlier vertices, so pointer jumping resolves them
    in at most log2(n) rounds.
    """
    if n_leaves < 2:
        raise StructureError("need at least 2 leaves")
    n = n_leaves
    leaves = np.arange(2, n)
    n_ext = np.where(leaves == 2, 1, leaves)
    n_int = np.maximum(leaves - 3, 0)
    ext_weight = float(1 - alpha) * n_ext
    total = ext_weight + float(alpha) * n_int
    draws = rng.random((len(leaves), 2))
    pick_ext = (total == 0.0) | (draws[:, 0] * total < ext_weight)
    size = np.where(pick_ext, n_ext, n_int)
    index = np.minimum((draws[:, 1] * size).astype(np.int64), size - 1)
    # the step number t of the top before each step; -2 stands for leaf 2
    top = np.maximum.accumulate(np.where(pick_ext & (index == 0), leaves - 1, 0))
    top[1:] = top[:-1]
    top[:1] = -2
    external = np.where(index == 0, -top, index + 1)
    target = np.where(pick_ext, external, -1 - index - (index + 1 >= top))
    order = np.argsort(target, kind="stable")
    below, inserted = target[order], -1 - order
    # inserted[again + 1] went in just above inserted[again]
    again = np.flatnonzero(below[1:] == below[:-1])
    # arrays indexed by vertex id: leaf l at l, internal -s at 2n - 1 - s
    ids = np.arange(2 * n - 1)
    ids[n + 1 :] -= 2 * n - 1
    birth = np.zeros(2 * n - 1, np.int64)
    birth[2] = 1
    birth[3 : n + 1] = 1 - leaves
    birth[inserted[again + 1]] = inserted[again]
    first = np.ones(n - 2, bool)
    first[again + 1] = False
    link = ids.copy()  # link[v]: a vertex with v's birth parent, v itself once known
    link[inserted[first]] = below[first]
    while True:
        jumped = link[link]
        if (jumped == link).all():
            break
        link = jumped
    parent = birth[link]
    last = np.ones(n - 2, bool)
    last[again] = False
    parent[below[last]] = inserted[last]
    return np.stack([parent[2:], ids[2:]], axis=1)


def sample_ford_cladogram(alpha, m: int, rng: np.random.Generator) -> Cladogram:
    """One draw from the alpha-Ford model on m-cladograms.

    Growth by weighted edge insertion followed by a uniform relabeling of the
    leaves, which makes the law exchangeable.
    """
    m, alpha = _integer(m, "a leaf count"), parse_alpha(alpha)
    edges = _grow_edges(alpha, m, rng)
    perm = rng.permutation(m) + 1
    return Cladogram(m, np.where(edges > 0, perm[np.maximum(edges, 1) - 1], edges))


def sample_ford_tree(alpha, n_leaves: int, rng: np.random.Generator) -> FiniteMeasureTree:
    """One draw of the alpha-Ford measure tree with ``n_leaves`` leaves.

    Same growth as :func:`sample_ford_cladogram`; the final label permutation
    is skipped because the measure tree carries no label information.
    """
    n_leaves, alpha = _integer(n_leaves, "a leaf count"), parse_alpha(alpha)
    return FiniteMeasureTree(Cladogram(n_leaves, _grow_edges(alpha, n_leaves, rng)))


def sample_kingman_cladogram(m: int, rng: np.random.Generator) -> Cladogram:
    """Cladogram read off a Kingman m-coalescent.

    Runs the jump chain on partitions (uniform pair merger at every step) and
    builds one internal vertex per merger; the final merger joins the two
    remaining block vertices by an edge.
    """
    m = _integer(m, "a leaf count")
    if m < 2:
        raise StructureError("need at least 2 leaves")
    blocks = list(range(1, m + 1))
    edges = []
    for k in range(m, 2, -1):
        i = int(rng.integers(k))
        j = int(rng.integers(k - 1))
        j += j >= i
        i, j = min(i, j), max(i, j)
        w = k - m - 1  # -1, -2, ... in merger order
        edges += [(w, blocks[i]), (w, blocks[j])]
        blocks[i] = w
        blocks.pop(j)
    edges.append((blocks[0], blocks[1]))
    return Cladogram(m, edges)


def build_comb_tree(n_leaves: int) -> FiniteMeasureTree:
    """The comb: a spine of n-2 internal vertices, one tooth leaf each, and
    one leaf at either end.  Labels run 1 (left end), 2..n-1 (teeth), n."""
    n_leaves = _integer(n_leaves, "a leaf count")
    if n_leaves < 2:
        raise StructureError("need at least 2 leaves")
    spine = [-i for i in range(1, n_leaves - 1)]
    path = [1, *spine, n_leaves]
    edges = list(zip(path, path[1:]))
    edges += [(s, i + 2) for i, s in enumerate(spine)]
    return FiniteMeasureTree(Cladogram(n_leaves, edges))


def _evaluate(coeffs: np.ndarray, alpha: Fraction):
    """b**d P(a / b) at alpha = a / b, for P of degree d given by integer
    coefficients along the last axis, lowest power first (Python ints)."""
    a, b = alpha.numerator, alpha.denominator
    d = coeffs.shape[-1] - 1
    return sum(coeffs[..., i].astype(object) * (a**i * b ** (d - i)) for i in range(d + 1))


def _times(coeffs: np.ndarray, poly) -> np.ndarray:
    """Each row of ``coeffs`` times the polynomial ``poly``: one shifted
    multiply-add over the whole array per coefficient of ``poly``."""
    w = coeffs.shape[1]
    out = np.zeros((len(coeffs), w + len(poly) - 1), dtype=coeffs.dtype)
    for i, c in enumerate(poly):
        out[:, i:i + w] += c * coeffs
    return out


@lru_cache(maxsize=None)
def _law(m: int) -> tuple[np.ndarray, np.ndarray]:
    """P_m = N_m / D_m as integer coefficients in alpha: N_m per state, shape
    (S, max(m - 3, 1)), and D_m.  Each recursion step is linear in alpha
    and shares the factor m (m - 1 - 3 alpha) across states."""
    if not 2 <= m <= MAX_ENUMERATION_LEAVES:
        raise StructureError(f"exact distributions support 2 <= m <= {MAX_ENUMERATION_LEAVES}")
    states = enumerate_cladograms(m)
    if m <= 4:
        return np.ones((len(states), 1), dtype=np.int64), np.array([len(states)])
    prev_num, prev_den = _law(m - 1)
    rows, cherry = states.deletions, states.cherries
    num = np.zeros((len(states), m - 3), dtype=np.int64)
    for k in range(m):  # leaf k weighs alpha, plus 1 - 2 alpha as a cherry
        terms = prev_num[rows[:, k]]
        num[:, 1:] += terms
        terms *= cherry[:, k, None]
        num[:, :-1] += terms
        num[:, 1:] -= 2 * terms
    den = np.convolve(prev_den, [m * (m - 1), -3 * m])
    assert (num.sum(axis=0) == den).all()  # the law sums to one at every alpha
    return num, den


def exact_distribution(alpha, m: int) -> ExactDistribution:
    """Exact alpha-Ford law on m-cladograms, 2 <= m <= 8.  One ``Fraction``
    is built per distinct evaluated numerator, and every state with that
    value shares it: the states of one unlabeled class always do."""
    m = _integer(m, "a leaf count")
    num, den = _law(m)
    alpha = parse_alpha(alpha)
    den, states = _evaluate(den, alpha), enumerate_cladograms(m)
    values = _evaluate(num, alpha).tolist()
    atom = {n: Fraction(n, den) for n in set(values)}
    table = dict(zip(states.keys, map(atom.__getitem__, values)))
    return ExactDistribution(alpha, m, table)


def deletion_stability_check(alpha, m: int) -> tuple[bool, Fraction]:
    """Marginalize the m-leaf law by deleting a uniform leaf and compare to
    the (m-1)-leaf law.  Returns (exact equality, max residual), from the
    residual R(r) of sum_{(t, k) -> r} N_m(t) D_{m-1} = m D_m N_{m-1}(r)."""
    m = _integer(m, "a leaf count")
    if m < 3:
        raise StructureError("deletion stability needs m >= 3")
    num, den = _law(m)
    prev_num, prev_den = _law(m - 1)
    alpha = parse_alpha(alpha)
    marginal = np.zeros((len(prev_num), num.shape[1]), dtype=np.int64)
    np.add.at(marginal, enumerate_cladograms(m).deletions.ravel(), np.repeat(num, m, axis=0))
    residual = _evaluate(_times(marginal, prev_den) - _times(prev_num, m * den), alpha)
    scale = m * _evaluate(den, alpha) * _evaluate(prev_den, alpha)
    residual = Fraction(max(abs(x) for x in residual), scale)
    return residual == 0, residual
