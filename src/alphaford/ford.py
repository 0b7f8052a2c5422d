"""Static samplers and exact laws of the alpha-Ford family.

The alpha-Ford model grows a cladogram by repeatedly picking an edge with
weight 1 - alpha (external) or alpha (internal), inserting the next leaf in
its middle, and finally permuting the leaf labels.  alpha = 0 is the
Yule/coalescent tree, alpha = 1/2 the uniform cladogram, alpha = 1 the comb.
The growth draws one block of uniforms up front, since the edge counts of
every step are known, so no step makes a scalar draw.  It returns its edges
as an (E, 2) int64 array, which :class:`Cladogram` validates in numpy.

Exact probabilities on the space of m-cladograms are computed by the
one-leaf-removal recursion

    P_m(t) = (1/m) * sum_k P_{m-1}(t minus leaf k)
             * ((1-alpha) if k is a cherry else alpha) / (m - 1 - 3*alpha),

with uniform base case at m = 4 (insertion into the unique 3-cladogram sees
three equal-weight external edges, which also sidesteps the vanishing
denominator at alpha = 1, m = 4).  All probabilities are exact rationals.
The recursion and the deletion check run on split bitmasks
(:attr:`Cladogram.splits`), with no tree built per deleted leaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from alphaford._rng import parse_alpha
from alphaford.cladogram import (
    Cladogram,
    StructureError,
    _cherry_mask,
    _deletions,
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

MAX_EXACT_LEAVES = 8


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law on the m-cladograms, keyed by canonical key."""

    alpha: Fraction
    m: int
    table: dict

    def as_vector(self, states) -> list[Fraction]:
        return [self.table.get(t.key, Fraction(0)) for t in states]

    def total(self) -> Fraction:
        return sum(self.table.values(), Fraction(0))


def _grow_edges(alpha: Fraction, n_leaves: int, rng: np.random.Generator):
    """Run the weighted growth from the 2-leaf tree to ``n_leaves`` leaves.

    Returns the edges as an (E, 2) int64 array; leaves are labeled 1..n in
    insertion order, internal vertices -1, -2, ...  The edge counts of every
    step are known in advance (k external edges at k leaves, one at k = 2,
    and k - 3 internal ones), so one block of uniforms, two per step, fixes
    every class pick and within-class index before the loop, which only moves
    edge slots between the class lists.  When the total edge weight vanishes
    (alpha = 1 while only external edges exist) the next edge is drawn
    uniformly among the external ones.
    """
    if n_leaves < 2:
        raise StructureError("need at least 2 leaves")
    leaves = np.arange(2, n_leaves)
    n_ext = np.where(leaves == 2, 1, leaves)
    n_int = np.maximum(leaves - 3, 0)
    ext_weight = float(1 - alpha) * n_ext
    total = ext_weight + float(alpha) * n_int
    draws = rng.random((len(leaves), 2))
    pick_ext = (total == 0.0) | (draws[:, 0] * total < ext_weight)
    size = np.where(pick_ext, n_ext, n_int)
    index = np.minimum((draws[:, 1] * size).astype(np.int64), size - 1)
    # slot e holds edge (head[e], tail[e]); the class lists hold slots, and
    # the 2k - 3 edges of the k-leaf tree fill slots 0..2k - 4
    head = [1] + [0] * (2 * n_leaves - 4)
    tail = [2] + [0] * (2 * n_leaves - 4)
    ext = [0]
    internal: list[int] = []
    for k, is_ext, i in zip(range(2, n_leaves), pick_ext.tolist(), index.tolist()):
        lst = ext if is_ext else internal
        lst[i], lst[-1] = lst[-1], lst[i]
        e = lst.pop()
        u, v = head[e], tail[e]
        w = 1 - k
        s = 2 * k - 3
        # (u, v) becomes (w, u) in its slot, (w, v) and (w, k + 1) are new
        head[e], tail[e] = w, u
        head[s], tail[s] = w, v
        head[s + 1], tail[s + 1] = w, k + 1
        (ext if u > 0 else internal).append(e)
        (ext if v > 0 else internal).append(s)
        ext.append(s + 1)
    return np.array([head, tail], np.int64).T


def sample_ford_cladogram(alpha, m: int, rng: np.random.Generator) -> Cladogram:
    """One draw from the alpha-Ford model on m-cladograms.

    Growth by weighted edge insertion followed by a uniform relabeling of the
    leaves, which makes the law exchangeable.
    """
    alpha = parse_alpha(alpha)
    edges = _grow_edges(alpha, m, rng)
    perm = rng.permutation(m) + 1
    return Cladogram(m, np.where(edges > 0, perm[np.maximum(edges, 1) - 1], edges))


def sample_ford_tree(alpha, n_leaves: int, rng: np.random.Generator) -> FiniteMeasureTree:
    """One draw of the alpha-Ford measure tree with ``n_leaves`` leaves.

    Same growth as :func:`sample_ford_cladogram`; the final label permutation
    is skipped because the measure tree carries no label information.
    """
    alpha = parse_alpha(alpha)
    return FiniteMeasureTree(Cladogram(n_leaves, _grow_edges(alpha, n_leaves, rng)))


def sample_kingman_cladogram(m: int, rng: np.random.Generator) -> Cladogram:
    """Cladogram read off a Kingman m-coalescent.

    Runs the jump chain on partitions (uniform pair merger at every step) and
    builds one internal vertex per merger; the final merger joins the two
    remaining block vertices by an edge.
    """
    if m < 2:
        raise StructureError("need at least 2 leaves")
    if m == 2:
        return Cladogram(2, [(1, 2)])
    blocks = list(range(1, m + 1))
    edges = []
    nxt = -1
    for k in range(m, 2, -1):
        i = int(rng.integers(k))
        j = int(rng.integers(k - 1))
        if j >= i:
            j += 1
        i, j = min(i, j), max(i, j)
        w = nxt
        nxt -= 1
        edges.append((w, blocks[i]))
        edges.append((w, blocks[j]))
        blocks[i] = w
        blocks.pop(j)
    edges.append((blocks[0], blocks[1]))
    return Cladogram(m, edges)


def build_comb_tree(n_leaves: int) -> FiniteMeasureTree:
    """The comb: a spine of n-2 internal vertices, one tooth leaf each, and
    one leaf at either end.  Labels run 1 (left end), 2..n-1 (teeth), n."""
    if n_leaves < 2:
        raise StructureError("need at least 2 leaves")
    if n_leaves == 2:
        return FiniteMeasureTree(Cladogram(2, [(1, 2)]))
    spine = [-i for i in range(1, n_leaves - 1)]
    edges = [(spine[0], 1), (spine[-1], n_leaves)]
    edges += [(s, t) for s, t in zip(spine, spine[1:])]
    edges += [(spine[i], i + 2) for i in range(len(spine))]
    return FiniteMeasureTree(Cladogram(n_leaves, edges))


@lru_cache(maxsize=None)
def _exact_distribution(alpha: Fraction, m: int) -> ExactDistribution:
    states = enumerate_cladograms(m)
    if m <= 4:
        p = Fraction(1, len(states))
        return ExactDistribution(alpha, m, {t.key: p for t in states})
    prev = _exact_distribution(alpha, m - 1).as_vector(enumerate_cladograms(m - 1))
    # Sums run over integer numerators of one common denominator, and with
    # alpha = a / b the weights 1 - alpha, alpha and the factor
    # m (m - 1 - 3 alpha) are all scaled by b: one Fraction per state.
    common = math.lcm(*(p.denominator for p in prev))
    num = [p.numerator * (common // p.denominator) for p in prev]
    a, b = alpha.numerator, alpha.denominator
    scale = common * m * ((m - 1) * b - 3 * a)
    table = {}
    for t, reduced in zip(states, _deletions(m)):
        cherries = _cherry_mask(t.splits, m)
        cherry_sum = other_sum = 0
        for k, r in enumerate(reduced, start=1):
            if cherries >> k & 1:
                cherry_sum += num[r]
            else:
                other_sum += num[r]
        table[t.key] = Fraction((b - a) * cherry_sum + a * other_sum, scale)
    dist = ExactDistribution(alpha, m, table)
    assert dist.total() == 1
    return dist


def exact_distribution(alpha, m: int) -> ExactDistribution:
    """Exact alpha-Ford law on m-cladograms, 2 <= m <= 8."""
    if not 2 <= m <= MAX_EXACT_LEAVES:
        raise StructureError(f"exact distributions support 2 <= m <= {MAX_EXACT_LEAVES}")
    return _exact_distribution(parse_alpha(alpha), m)


def deletion_stability_check(alpha, m: int) -> tuple[bool, Fraction]:
    """Marginalize the m-leaf law by deleting a uniform leaf and compare to
    the (m-1)-leaf law.  Returns (exact equality, max residual)."""
    if m < 3:
        raise StructureError("deletion stability needs m >= 3")
    probs = exact_distribution(alpha, m).as_vector(enumerate_cladograms(m))
    target = exact_distribution(alpha, m - 1).as_vector(enumerate_cladograms(m - 1))
    marginal = [Fraction(0)] * len(target)
    for p, reduced in zip(probs, _deletions(m)):
        p /= m
        for r in reduced:
            marginal[r] += p
    residual = max(abs(x - y) for x, y in zip(marginal, target))
    return residual == 0, residual
