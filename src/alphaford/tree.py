"""Finite binary algebraic measure trees: branch points, component masses,
the branch point distribution, and the mass metric.

A :class:`FiniteMeasureTree` is a binary tree with N leaves carrying uniform
mass 1/N each (an element of the N-leaf slice of binary algebraic measure
trees).  Leaf labels of the underlying topology are kept for addressing but
carry no probabilistic meaning.

Single-point queries return exact rationals.  Batched queries (used by the
Monte Carlo estimators) run on flat numpy arrays read from the preorder walk
from leaf 1 that :class:`~alphaford.cladogram.Cladogram` records when it
validates the tree, so the index does not walk the tree again.  A subtree
occupies a run of preorder positions, which gives O(1) ancestor tests and
picks the child of v that leads to u, and a sparse table of depths over the
preorder gives O(1) LCA lookups.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from alphaford.cladogram import Cladogram, StructureError, from_newick, to_newick

__all__ = ["FiniteMeasureTree"]


class _Index:
    """Flat-array view of a tree rooted at leaf 1, on vertex positions (leaf v
    at v - 1, internal v at n - 1 - v), read from the preorder walk that
    validated the cladogram: parents, depths, children, subtree leaf counts,
    and the preorder itself.  Each subtree is a run of preorder positions
    ``first..last``, which answers ancestor tests, and a sparse table of
    minimum depths over the preorder answers LCA queries."""

    def __init__(self, clad: Cladogram):
        n = clad.m
        self.n_leaves = n
        V = 2 * n - 2
        order, parent = clad._preorder, clad._parent
        depth = [0] * V
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        leafcnt = [1] * n + [0] * (V - n)
        for v in reversed(order[1:]):
            leafcnt[parent[v]] += leafcnt[v]

        self.parent = parent = np.array(parent, np.int64)
        self.depth = depth = np.array(depth, np.int64)
        self.order = order = np.array(order, np.int64)
        self.first = first = np.empty(V, np.int64)
        first[order] = np.arange(V)
        self.leafcnt = leafcnt = np.array(leafcnt, np.int64)
        # every internal vertex has two children, so a subtree with k leaves
        # has 2k - 1 vertices
        self.last = first + 2 * leafcnt - 2
        # a stable sort keeps each vertex's two children in ascending position,
        # the order internal_component_counts reports; leaf 1 stores its one
        # child twice, and the leaf rows are never read
        by_parent = np.argsort(parent[1:], kind="stable") + 1
        children = np.zeros((V, 2), np.int64)
        children[0] = by_parent[0]
        children[n:] = by_parent[1:].reshape(V - n, 2)
        self.children = children

        # sparse[j, i]: the shallowest vertex at preorder positions i..i+2^j-1
        logs = np.frexp(np.arange(V + 1))[1] - 1
        self.logs = logs
        K = logs[V] + 1
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
        j = self.logs[hi - lo + 1]
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
        fu = self.first[u]
        return (self.first[a] <= fu) & (fu <= self.last[a])

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
        self._nu: dict[int, Fraction] | None = None

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

    def _leaf_positions(self, *leaves) -> list[np.ndarray]:
        """Index positions of arrays of leaf ids; raises for an id outside 1..N."""
        out = [np.asarray(v) - 1 for v in leaves]
        if any(p.size and (p.min() < 0 or p.max() >= self.n) for p in out):
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

    def internal_component_counts(self) -> dict[int, tuple[int, int, int]]:
        """For each internal vertex, the leaf counts of its three components."""
        idx = self.index
        n = self.n
        counts = np.column_stack([idx.leafcnt[idx.children[n:]], n - idx.leafcnt[n:]])
        return dict(zip(self.topology.internal_vertices, map(tuple, counts.tolist())))

    def branch_point_distribution(self) -> dict[int, Fraction]:
        """nu(v) = P(c(U1, U2, U3) = v) for U_i iid uniform leaves.

        For an internal vertex with component masses (a, b, c) this is 6abc;
        a leaf of mass p contributes 3p^2 - 2p^3 (the triples with at least
        two coordinates equal to it).  Values sum to exactly 1.
        """
        if self._nu is None:
            n = self.n
            cube = n**3
            nu = {leaf: Fraction(3 * n - 2, cube) for leaf in self.leaf_ids}
            for v, (a, b, c) in self.internal_component_counts().items():
                nu[v] = Fraction(6 * a * b * c, cube)
            self._nu = nu
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
        """For arrays of distinct leaf ids: which of b, c, d pairs with a.

        Returns codes 1, 2, 3 for partner b, c, d.  The pairing {a,x}|{y,z}
        is detected through equality of medians: a pairs with b iff
        c(a,b,c) == c(a,b,d), else with c iff c(a,b,c) == c(a,c,d).
        """
        idx = self.index
        pa, pb, pc, pd = self._leaf_positions(a, b, c, d)
        m_abc = idx.median(pa, pb, pc)
        m_abd = idx.median(pa, pb, pd)
        m_acd = idx.median(pa, pc, pd)
        return np.where(m_abc == m_abd, 1, np.where(m_abc == m_acd, 2, 3))

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
