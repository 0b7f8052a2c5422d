"""Finite binary algebraic measure trees: branch points, component masses,
the branch point distribution, and the mass metric.

A :class:`FiniteMeasureTree` is a binary tree with N leaves carrying uniform
mass 1/N each (an element of the N-leaf slice of binary algebraic measure
trees).  Leaf labels of the underlying topology are kept for addressing but
carry no probabilistic meaning.

Single-point queries return exact rationals.  Batched queries (used by the
Monte Carlo estimators) run on flat numpy arrays read from the preorder walk
from leaf 1 that :class:`~alphaford.cladogram.Cladogram` records when it
validates the tree, and shares its arrays instead of walking again.  A subtree
occupies a run of preorder positions, which gives O(1) ancestor tests and
picks the child of v that leads to u, and a sparse table of depths over the
preorder gives O(1) LCA lookups.  The ends of those runs, and from them the
subtree leaf counts and the depths, are found in numpy from the preorder
alone, with no per-vertex Python loop.  Quartets are read by the four-point
condition: ab|cd iff the depths of lca(a, b) and lca(c, d) have the largest
sum of the three pairings, so one stacked LCA call per block of rows answers
a batch.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from alphaford.cladogram import Cladogram, StructureError, from_newick, to_newick

__all__ = ["FiniteMeasureTree"]

# Components a + b + c = N have abc <= (N/3)^3, below 2^63 for N < 3 * 2^21;
# from there on the products are taken in Python ints.
_INT64_PRODUCT_LEAVES = 3 << 21

# quartet_partners: rows per stacked LCA call, and the pairs (ab, cd, ac, bd,
# ad, bc) of the quartet's columns a, b, c, d, the two pairs of each split
# adjacent
_QUARTET_BLOCK = 1 << 13
_PAIR_LEFT = [0, 2, 0, 1, 0, 1]
_PAIR_RIGHT = [1, 3, 2, 3, 3, 2]


def _subtree_spans(order: np.ndarray, n: int) -> np.ndarray:
    """For each position i = 1..V-1 of a preorder from leaf 1 (vertex
    positions, internal from n), the last position of the subtree at i,
    minus i.

    Count +1 for an internal vertex and -1 for a leaf: a binary subtree sums
    to -1 and each proper prefix of it to >= 0, so the subtree starting at i
    ends just before the first j > i where the running sum drops below its
    value at i.  Sorted (running sum, position) keys let one
    ``searchsorted`` find every such j.
    """
    V = len(order)
    run = np.zeros(V + 1, np.int64)  # run[j]: the sum over positions 1..j-1
    np.cumsum(np.where(order[1:] >= n, 1, -1), out=run[2:])
    key = run * (V + 1) + np.arange(V + 1)
    pairs = np.sort(key)
    # key[i] - V is the key of (run[i] - 1, i + 1); the first key at or above
    # it is that of the end j, and the two differ by j - (i + 1)
    target = key[1:V] - V
    return pairs[np.searchsorted(pairs, target)] - target


class _Index:
    """Flat-array view of a tree rooted at leaf 1, on vertex positions (leaf v
    at v - 1, internal v at n - 1 - v), read from the preorder walk that
    validated the cladogram: parents, depths, children, subtree leaf counts,
    and the preorder itself (these two are the cladogram's, not copies).  The
    subtree at v is the run of 2 leafcnt[v] - 1 preorder positions from
    ``first[v]``, which answers ancestor tests, and a sparse table of minimum
    depths over the preorder answers LCA queries."""

    def __init__(self, clad: Cladogram):
        n = clad.m
        self.n_leaves = n
        V = 2 * n - 2
        self.parent = parent = clad._parent
        self.order = order = clad._preorder
        self.first = first = np.empty(V, np.int64)
        first[order] = np.arange(V)
        span = _subtree_spans(order, n)
        # every internal vertex has two children, so a subtree with k leaves
        # has 2k - 1 vertices; leaf 1's counts all n
        self.leafcnt = leafcnt = np.empty(V, np.int64)
        leafcnt[order[1:]] = span // 2 + 1
        leafcnt[0] = n
        # each vertex before preorder position i is an ancestor of it or lies
        # in a subtree closed before i; the subtree at i closes at i + span + 1
        positions = np.arange(V + 1)
        closed = np.cumsum(np.bincount(span + positions[2:], minlength=V + 1))
        self.depth = depth = np.empty(V, np.int64)
        depth[order] = positions[:V] - closed[:V]
        # a stable sort keeps each vertex's two children in ascending position,
        # the order internal_component_counts reports; leaf 1 stores its one
        # child twice, and the leaf rows are never read
        by_parent = np.argsort(parent[1:], kind="stable") + 1
        children = np.zeros((V, 2), np.int64)
        children[0] = by_parent[0]
        children[n:] = by_parent[1:].reshape(V - n, 2)
        self.children = children

        # sparse[j, i]: the shallowest vertex at preorder positions i..i+2^j-1
        K = V.bit_length()
        sparse = np.zeros((K, V), np.int32)
        sparse[0] = order
        for j in range(1, K):
            span = 1 << (j - 1)
            left = sparse[j - 1, : V - 2 * span + 1]
            right = sparse[j - 1, span : V - span + 1]
            sparse[j, : V - 2 * span + 1] = np.where(depth[left] <= depth[right], left, right)
        self.sparse = sparse

    # -- vectorized primitives (positions in, positions out) -------------------

    def lca(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """For u != v, the parent of the shallowest vertex at preorder
        positions (min first, max first]; u itself for u == v."""
        fu, fv = self.first[u], self.first[v]
        hi = np.maximum(fu, fv)
        lo = np.minimum(np.minimum(fu, fv) + 1, hi)
        j = np.frexp(hi - lo + 1)[1] - 1  # floor(log2)
        a = self.sparse[j, lo]
        b = self.sparse[j, hi - (1 << j) + 1]
        best = np.where(self.depth[a] <= self.depth[b], a, b)
        return np.where(fu == fv, u, self.parent[best])

    def median(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        a = self.lca(x, y)
        b = self.lca(y, z)
        c = self.lca(x, z)
        # two of the three pairwise LCAs coincide; the median is the deepest
        out = np.where(self.depth[b] > self.depth[a], b, a)
        return np.where(self.depth[c] > self.depth[out], c, out)

    def is_ancestor(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        fa, fu = self.first[a], self.first[u]
        return (fa <= fu) & (fu <= fa + 2 * self.leafcnt[a] - 2)

    def component_leaf_count(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Leaves in the component of (tree minus v) containing u, u != v."""
        c0, c1 = self.children[v, 0], self.children[v, 1]
        child = np.where(self.is_ancestor(c0, u), c0, c1)
        below = self.is_ancestor(v, u)
        return np.where(below, self.leafcnt[child], self.n_leaves - self.leafcnt[v])


class FiniteMeasureTree:
    """Binary tree with N labeled leaves and uniform mass 1/N per leaf."""

    def __init__(self, topology: Cladogram):
        self.topology = topology
        self._idx: _Index | None = None
        self._nu: Mapping[int, Fraction] | None = None

    @classmethod
    def from_newick(cls, s: str) -> "FiniteMeasureTree":
        return cls(from_newick(s))

    def to_newick(self) -> str:
        return to_newick(self.topology)

    @property
    def n(self) -> int:
        return self.topology.m

    @property
    def leaf_ids(self) -> range:
        return self.topology.leaves

    @property
    def leaf_mass(self) -> Fraction:
        return Fraction(1, self.n)

    @property
    def index(self) -> _Index:
        if self._idx is None:
            self._idx = _Index(self.topology)
        return self._idx

    def __repr__(self) -> str:
        return f"FiniteMeasureTree(n={self.n})"

    def rooted_view(self) -> tuple[list[tuple[int, int, int]], int]:
        """The tree rooted at leaf 1, on dense ids (leaf i is i - 1, internal
        vertices from N on): a (vertex, child, child) triple per internal
        vertex, children first, and leaf 1's neighbour."""
        idx = self.index
        kids = idx.children.tolist()
        n = self.n
        return [(v, *kids[v]) for v in reversed(idx.order.tolist()) if v >= n], kids[0][0]

    def _position(self, v: int) -> int:
        """Index position of vertex ``v`` (see :class:`_Index`)."""
        n = self.n
        if not (1 <= v <= n or 2 - n <= v <= -1):
            raise StructureError(f"{v} is not a vertex of this {n}-leaf tree")
        return v - 1 if v > 0 else n - 1 - v

    def _vertex(self, p: int) -> int:
        """Vertex id at index position ``p``, the inverse of :meth:`_position`."""
        return int(p) + 1 if p < self.n else self.n - 1 - int(p)

    def _leaf_positions(self, *leaves) -> np.ndarray:
        """Index positions of arrays of leaf ids, broadcast together and
        stacked along a new first axis; raises for an id outside 1..N."""
        out = np.stack(np.broadcast_arrays(*leaves))
        out -= 1
        if out.size and (out.min() < 0 or out.max() >= self.n):
            raise StructureError(f"leaf ids must lie in 1..{self.n}")
        return out

    # -- exact single-point queries ---------------------------------------------

    def branch_point(self, x: int, y: int, z: int) -> int:
        """The median vertex c(x, y, z), lying on all three pairwise paths."""
        p = self.index.median(*(np.array([self._position(v)]) for v in (x, y, z)))[0]
        return self._vertex(p)

    def component_leaf_counts(self, u: Sequence[int]) -> tuple[int, int, int]:
        """Leaf counts of the three components hanging off c(u1, u2, u3)."""
        x, y, z = u
        if len({x, y, z}) != 3:
            raise StructureError("component masses need three distinct leaves")
        return tuple(int(c) for c in self.triple_component_counts([x], [y], [z])[0])

    def component_masses(self, u: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
        """Mass vector (eta_1, eta_2, eta_3) of the components at c(u); sums to 1."""
        n = self.n
        return tuple(Fraction(c, n) for c in self.component_leaf_counts(u))

    def _component_count_array(self) -> np.ndarray:
        """(N - 2, 3) leaf counts of the components at internal vertices
        -1, -2, ...: the two child subtrees, then the rest."""
        idx = self.index
        n = self.n
        return np.column_stack([idx.leafcnt[idx.children[n:]], n - idx.leafcnt[n:]])

    def internal_component_counts(self) -> dict[int, tuple[int, int, int]]:
        """For each internal vertex, the leaf counts of its three components."""
        counts = self._component_count_array()
        return dict(zip(self.topology.internal_vertices, map(tuple, counts.tolist())))

    def branch_point_distribution(self) -> Mapping[int, Fraction]:
        """nu(v) = P(c(U1, U2, U3) = v) for U_i iid uniform leaves, leaves
        1..N first, then internal vertices -1, -2, ...; a read-only view.

        For an internal vertex with component masses (a, b, c) this is 6abc;
        a leaf of mass p contributes 3p^2 - 2p^3 (the triples with at least
        two coordinates equal to it).  Values sum to exactly 1.  Every leaf
        shares one atom, and internal vertices share one atom per distinct
        leaf-count product.
        """
        if self._nu is None:
            n = self.n
            cube = n**3
            counts = self._component_count_array()
            if n >= _INT64_PRODUCT_LEAVES:
                counts = counts.astype(object)
            products, which = np.unique(counts.prod(axis=1), return_inverse=True)
            atoms = [Fraction(6 * p, cube) for p in products.tolist()]
            nu = dict.fromkeys(self.leaf_ids, Fraction(3 * n - 2, cube))
            nu.update(zip(self.topology.internal_vertices, map(atoms.__getitem__, which.tolist())))
            self._nu = MappingProxyType(nu)
        return self._nu

    def interval(self, x: int, y: int) -> tuple[int, ...]:
        """Vertices z with c(x, y, z) = z: the path from x to y inclusive."""
        idx = self.index
        px, py = self._position(x), self._position(y)
        anc = int(idx.lca(np.array([px]), np.array([py]))[0])
        up, down = [], []
        for p, side in ((px, up), (py, down)):
            while p != anc:
                side.append(p)
                p = int(idx.parent[p])
        return tuple(self._vertex(p) for p in up + [anc] + down[::-1])

    def r_mu(self, x: int, y: int) -> Fraction:
        """Mass metric: nu of the interval [x, y] minus half the endpoint atoms."""
        nu = self.branch_point_distribution()
        total = sum((nu[v] for v in self.interval(x, y)), Fraction(0))
        return total - Fraction(1, 2) * nu[x] - Fraction(1, 2) * nu[y]

    # -- batched queries for Monte Carlo --------------------------------------

    def quartet_partners(self, a, b, c, d) -> np.ndarray:
        """For arrays of distinct leaf ids (any shapes that broadcast
        together): which of b, c, d pairs with a.

        Returns codes 1, 2, 3 for partner b, c, d, in the broadcast shape.
        By the four-point condition, ab|cd holds iff depth(lca(a, b)) +
        depth(lca(c, d)) is the largest of the three pair sums; in a binary
        tree four distinct leaves make that maximum strict.  The six pairwise
        LCAs of a block of at most ``_QUARTET_BLOCK`` rows are found in one
        stacked :meth:`_Index.lca` call, which bounds the temporaries.
        """
        idx = self.index
        quad = self._leaf_positions(a, b, c, d)
        shape = quad.shape[1:]
        quad = quad.reshape(4, -1)
        out = np.empty(quad.shape[1], np.int64)
        for lo in range(0, len(out), _QUARTET_BLOCK):
            rows = slice(lo, lo + _QUARTET_BLOCK)
            depth = idx.depth[idx.lca(quad[_PAIR_LEFT, rows], quad[_PAIR_RIGHT, rows])]
            out[rows] = (depth[0::2] + depth[1::2]).argmax(axis=0) + 1
        return out.reshape(shape)

    def triple_component_counts(self, a, b, c) -> np.ndarray:
        """Component leaf counts at the median, for arrays of distinct leaf
        ids; shape (len, 3), row order matching the sample order."""
        idx = self.index
        pts = self._leaf_positions(a, b, c)
        v = idx.median(*pts)
        return np.stack([idx.component_leaf_count(v, p) for p in pts], axis=1)

    def sample_distinct_leaves(self, count: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """(count, k) array of leaf ids, each row without repetition."""
        n = self.n
        if k > n:
            raise StructureError(f"cannot draw {k} distinct leaves from {n}")
        out = rng.integers(1, n + 1, size=(count, k))
        while True:
            bad = np.zeros(count, dtype=bool)
            for i in range(k):
                for j in range(i + 1, k):
                    bad |= out[:, i] == out[:, j]
            if not bad.any():
                return out
            out[bad] = rng.integers(1, n + 1, size=(int(bad.sum()), k))
