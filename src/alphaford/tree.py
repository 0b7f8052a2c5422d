"""Finite binary algebraic measure trees: branch points, component masses,
the branch point distribution, and the mass metric.

A :class:`FiniteMeasureTree` is a binary tree with N leaves carrying uniform
mass 1/N each (an element of the N-leaf slice of binary algebraic measure
trees).  Leaf labels are kept for addressing but carry no probabilistic
meaning.  Single-point queries return exact rationals.

Everything runs on flat numpy arrays read from the preorder walk from leaf 1
that :class:`~alphaford.cladogram.Cladogram` records when it validates the
tree.  A subtree is a run of preorder positions: that gives O(1) ancestor
tests and each vertex's two children, and the run ends (found in numpy, with
no per-vertex loop) give the subtree leaf counts and depths.  One table of
them, ``component_counts()``, holds the three component leaf counts at each
internal vertex; nu, ``r_mu_numerators`` and the exact mass moments read it.
The LCA table, built by the first LCA query, holds the N - 1 LCAs of
preorder-adjacent leaf pairs as packed int64 keys depth * 2^shift + position
in a sparse table of about (N - 1) log2(N) values: the LCA of two leaves is
the shallowest adjacent LCA between them, one range minimum, and that of any
two vertices an ancestor test or the LCA of two leaves.  Quartets follow by
the four-point condition: ab|cd iff the depths of lca(a, b) and lca(c, d)
have the largest sum of the three pairings.  nu is a read-only mapping over
one shared leaf atom and one shared ``Fraction`` per distinct internal atom.
Vertex ids must be integers: bools, floats and strings raise ``TypeError``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping, Sequence, ValuesView
from fractions import Fraction

import numpy as np

from alphaford.cladogram import Cladogram, StructureError, from_newick, to_newick

__all__ = ["FiniteMeasureTree"]

# Components a + b + c = N have abc <= (N/3)^3, below 2^63 for N < 3 * 2^21;
# from there on the products are taken in Python ints.
_INT64_PRODUCT_LEAVES = 3 << 21
# r_mu_numerators adds path sums of 2N^3 nu, each at most 2N^3 <= 2^61
_INT64_METRIC_LEAVES = 1 << 20

# quartet_partners: rows per stacked LCA call, and the pairs (ab, cd, ac, bd,
# ad, bc) of the quartet's columns a, b, c, d, the two pairs of each split
# adjacent: their left ends, then their right ends
_QUARTET_BLOCK = 1 << 13
_PAIRS = np.array([[0, 2, 0, 1, 0, 1], [1, 3, 2, 3, 3, 2]])


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


@functools.lru_cache(maxsize=64)
def _level_offsets(width: int) -> np.ndarray:
    """Flat offsets into an LCA table of ``width`` columns by the bit length
    e of a range's length L, 2^(e-1) <= L < 2^e: row 0 holds that of level
    e - 1, added to the range's first column, row 1 that minus 2^(e-1) - 1,
    added to its last.  The empty range of a leaf with itself at rank r
    (L = 0, e = 0, last column r - 1) reads flat index r - width twice: in
    bounds, as r <= width, and the key read is discarded."""
    e = np.arange(width.bit_length() + 1)
    start = (e - 1) * width
    return np.stack([start, start + 1 - (1 << e >> 1)])


class _Index:
    """Flat-array view of a tree rooted at leaf 1, on vertex positions (leaf v
    at v - 1, internal v at n - 1 - v), read from the preorder walk that
    validated the cladogram: parents, depths, subtree leaf counts, and the
    preorder itself (these two are the cladogram's, not copies).  Each
    internal vertex's two children, ``children``, are found on first read:
    the quartet and LCA queries never read them.

    The subtree at v is the run of 2 leafcnt[v] - 1 preorder positions from
    ``first[v]``: the first child of an internal vertex follows it, and the
    second follows the first child's subtree; its last position holds a
    leaf.  The LCA table, built by the first LCA query, names a vertex by
    one key depth * 2^shift + position, so a minimum compares depths first.
    It holds the N - 1 LCAs of the preorder-adjacent leaves l_t, l_t+1: the
    parent of the vertex that follows l_t in the preorder, whose first
    child's subtree ends with l_t and whose second child's begins with
    l_t+1 (for t = 0, leaf 1, the root).  ``sparse[j, t]`` is the smallest
    of their keys t..t+2^j-1, and the LCA of leaves l_s, l_t, s < t, is the
    shallowest of the adjacent LCAs s..t-1 (Bender and Farach-Colton, LATIN
    2000), the minimum of keys s..t-1.  The same build sets ``rank``, each
    leaf's t."""

    def __init__(self, clad: Cladogram):
        n = clad.m
        self.n_leaves = n
        V = 2 * n - 2
        self.parent = clad._parent
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
        level = positions[:V] - closed[:V]  # the depth at each preorder position
        self.depth = depth = np.empty(V, np.int64)
        depth[order] = level
        # positions lie below 2^shift
        self.shift = V.bit_length()
        self.mask = (1 << self.shift) - 1

    @functools.cached_property
    def children(self) -> np.ndarray:
        """A row per internal vertex -1, -2, ...: its children in ascending
        position, the order component_counts reports."""
        order, start, leafcnt = self.order, self.first[self.n_leaves :], self.leafcnt
        one = order[start + 1]
        two = order[start + 2 * leafcnt[one]]
        return np.column_stack([np.minimum(one, two), np.maximum(one, two)])

    @functools.cached_property
    def sparse(self) -> np.ndarray:
        order, n = self.order, self.n_leaves
        at = np.flatnonzero(order < n)  # the leaves' preorder positions, leaf 1's 0
        self.rank = np.empty(n, np.int64)
        self.rank[order[at]] = np.arange(n)
        # the parent of the vertex after leaf l_t is lca(l_t, l_t+1)
        after = order[at[:-1] + 1]
        K, C = (n - 1).bit_length(), n - 1
        sparse = np.zeros((K, C), np.int64)
        np.bitwise_or((self.depth[after] - 1) << self.shift, self.parent[after], out=sparse[0])
        for j in range(1, K):
            half = 1 << (j - 1)
            np.minimum(
                sparse[j - 1, : C - 2 * half + 1],
                sparse[j - 1, half : C - half + 1],
                out=sparse[j, : C - 2 * half + 1],
            )
        return sparse

    # -- vectorized primitives (positions in, positions out) -------------------

    def leaf_key(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Packed key depth * 2^shift + position of lca(u, v) for leaf
        positions: the smallest table key over columns min rank .. max
        rank - 1; u's own key for u == v."""
        sparse = self.sparse.ravel()  # a first query builds it before its own temporaries
        start, end = _level_offsets(self.n_leaves - 1)
        ru, rv = self.rank[u], self.rank[v]
        hi = np.maximum(ru, rv)
        lo = np.minimum(ru, rv)
        hi -= 1
        e = np.frexp(hi - lo + 1)[1]  # the bit length of the range's length
        key = np.minimum(sparse.take(start.take(e) + lo), sparse.take(end.take(e) + hi))
        same = ru == rv
        if same.any():
            key = np.where(same, (self.depth[u] << self.shift) | u, key)
        return key

    def lca_key(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Packed key of lca(u, v) for any positions.  Of the two, a opens
        first in the preorder and b at or after it: the LCA is a if b lies
        in a's subtree, and else that of the last leaves of their subtrees."""
        order, leafcnt = self.order, self.leafcnt
        fu, fv = self.first[u], self.first[v]
        lo = np.minimum(fu, fv)
        hi = np.maximum(fu, fv)
        a, b = order[lo], order[hi]
        last = np.stack([lo + 2 * leafcnt[a] - 2, hi + 2 * leafcnt[b] - 2])
        inside = hi <= last[0]
        # leaf 1's subtree, the whole tree, would end one past the last
        # position; it holds every vertex, so its leaf key is discarded
        np.minimum(last, len(order) - 1, out=last)
        key = self.leaf_key(*order[last])
        return np.where(inside, (self.depth[a] << self.shift) | a, key)

    def lca(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.lca_key(u, v) & self.mask

    def median(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, leaves=False) -> np.ndarray:
        # two of the three pairwise LCAs coincide and the third lies above
        # them; the median is the deepest, the largest key
        lca_key = self.leaf_key if leaves else self.lca_key
        key = np.maximum(lca_key(x, y), lca_key(y, z))
        return np.maximum(key, lca_key(x, z)) & self.mask

    def is_ancestor(self, a: np.ndarray, u: np.ndarray) -> np.ndarray:
        fa, fu = self.first[a], self.first[u]
        return (fa <= fu) & (fu <= fa + 2 * self.leafcnt[a] - 2)

    def component_leaf_count(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Leaves in the component of (tree minus internal v) containing u != v."""
        c0, c1 = self.children[v - self.n_leaves].T
        child = np.where(self.is_ancestor(c0, u), c0, c1)
        below = self.is_ancestor(v, u)
        return np.where(below, self.leafcnt[child], self.n_leaves - self.leafcnt[v])


class _BranchPointDistribution(Mapping):
    """nu as a read-only mapping, keys in the order leaves 1..N, then
    internal vertices -1, -2, ...: every leaf reads the one leaf atom, and
    internal vertex -i the i-th entry of a tuple of shared atoms.  Its own
    view is ``values()``, which iterates the atoms themselves with no lookup
    per key; ``keys()`` and ``items()`` are ``Mapping``'s."""

    __slots__ = ("_leaf", "_internal", "_n")

    def __init__(self, leaf: Fraction, internal: tuple[Fraction, ...]):
        self._leaf = leaf
        self._internal = internal
        self._n = len(internal) + 2

    def __len__(self) -> int:
        return 2 * self._n - 2

    def __iter__(self):
        return itertools.chain(range(1, self._n + 1), range(-1, 1 - self._n, -1))

    def __getitem__(self, v) -> Fraction:
        try:
            i = operator.index(v)
        except TypeError:
            raise KeyError(v) from None
        if 1 <= i <= self._n:
            return self._leaf
        if 2 - self._n <= i <= -1:
            return self._internal[-1 - i]
        raise KeyError(v)

    def values(self) -> ValuesView:
        return _Atoms(self)


class _Atoms(ValuesView):
    __slots__ = ()

    def __iter__(self):
        nu = self._mapping
        return itertools.chain(itertools.repeat(nu._leaf, nu._n), nu._internal)


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

    def preorder(self) -> np.ndarray:
        """Vertex positions (see :class:`_Index`) in the preorder from leaf 1
        that validated the topology: the stored read-only array, no copy."""
        return self.topology._preorder

    def _positions(self, *ids, leaves: bool = False) -> np.ndarray:
        """Index positions (see :class:`_Index`) of arrays of vertex ids,
        broadcast together and stacked along a new first axis.  Ids must
        be integers (numpy's too; bools and floats raise ``TypeError``),
        and an id that is not a vertex (a leaf, if ``leaves``) raises
        ``StructureError``."""
        arrays = np.broadcast_arrays(*ids)
        for a in arrays:
            if a.dtype.kind not in "iu" and a.size:  # [] is a float array
                raise TypeError(f"vertex ids must be integers, got {a.dtype} ids")
        # uint64 ids past 2^63 wrap to negative ones, which the range rejects
        out = np.array(arrays, np.int64)
        n = self.n
        if leaves:
            if out.size and (out.min() < 1 or out.max() > n):
                raise StructureError(f"leaf ids must lie in 1..{n}")
            out -= 1
            return out
        if out.size and (out.min() < 2 - n or out.max() > n or not out.all()):
            raise StructureError(f"vertex ids must lie in 1..{n} or {2 - n}..-1")
        return np.where(out > 0, out - 1, n - 1 - out)

    def _vertex(self, p: int) -> int:
        """Vertex id at index position ``p``, the inverse of :meth:`_positions`."""
        return int(p) + 1 if p < self.n else self.n - 1 - int(p)

    # -- exact single-point queries ---------------------------------------------

    def branch_point(self, x: int, y: int, z: int) -> int:
        """The median vertex c(x, y, z), lying on all three pairwise paths."""
        return self._vertex(self.index.median(*self._positions([x], [y], [z]))[0])

    def component_leaf_counts(self, u: Sequence[int]) -> tuple[int, int, int]:
        """Leaf counts of the three components hanging off c(u1, u2, u3)."""
        x, y, z = u
        return tuple(int(c) for c in self.triple_component_counts([x], [y], [z])[0])

    def component_masses(self, u: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
        """Mass vector (eta_1, eta_2, eta_3) of the components at c(u); sums to 1."""
        n = self.n
        return tuple(Fraction(c, n) for c in self.component_leaf_counts(u))

    def component_counts(self) -> np.ndarray:
        """(N - 2, 3) leaf counts of the components at internal vertices
        -1, -2, ...: the two child subtrees, then the side of leaf 1."""
        idx, n = self.index, self.n
        return np.column_stack([idx.leafcnt[idx.children], n - idx.leafcnt[n:]])

    def branch_point_distribution(self) -> Mapping[int, Fraction]:
        """nu(v) = P(c(U1, U2, U3) = v) for U_i iid uniform leaves, leaves
        1..N first, then internal vertices -1, -2, ...; a read-only mapping.

        For an internal vertex with component masses (a, b, c) this is 6abc;
        a leaf of mass p contributes 3p^2 - 2p^3 (the triples with at least
        two coordinates equal to it).  Values sum to exactly 1.  Every leaf
        shares one atom, and internal vertices share one atom per distinct
        leaf-count product.
        """
        if self._nu is None:
            n = self.n
            cube = n**3
            dtype = np.int64 if n < _INT64_PRODUCT_LEAVES else object
            counts = self.component_counts().astype(dtype, copy=False)
            products, which = np.unique(counts.prod(axis=1), return_inverse=True)
            atoms = [Fraction(6 * p, cube) for p in products.tolist()]
            internal = tuple(map(atoms.__getitem__, which.tolist()))
            self._nu = _BranchPointDistribution(Fraction(3 * n - 2, cube), internal)
        return self._nu

    def interval(self, x: int, y: int) -> tuple[int, ...]:
        """Vertices z with c(x, y, z) = z: the path from x to y inclusive."""
        idx = self.index
        ends = self._positions([x], [y])
        anc = int(idx.lca(*ends)[0])
        up, down = [], []
        for p, side in zip(ends[:, 0].tolist(), (up, down)):
            while p != anc:
                side.append(p)
                p = int(idx.parent[p])
        return tuple(self._vertex(p) for p in up + [anc] + down[::-1])

    def r_mu(self, x: int, y: int) -> Fraction:
        """Mass metric: nu of the interval [x, y] minus half the endpoint atoms."""
        nu = self.branch_point_distribution()
        total = sum((nu[v] for v in self.interval(x, y)), Fraction(0))
        return total - Fraction(1, 2) * nu[x] - Fraction(1, 2) * nu[y]

    # -- batched queries --------------------------------------------------------

    def r_mu_numerators(self, x, y) -> np.ndarray:
        """2N^3 r_mu(x, y) for arrays of vertex ids (any shapes that
        broadcast together), as integers in the broadcast shape.

        With s(v) the nu-mass of the path from leaf 1 to v, the path from x
        to y has mass s(x) + s(y) - 2 s(l) + nu(l), l = lca(x, y).  Every
        s(v) is one prefix sum over the preorder: a vertex adds its atom
        where its subtree opens and takes it back where the subtree closes.
        Python ints replace int64 from ``_INT64_METRIC_LEAVES`` leaves on.
        """
        idx = self.index
        n = self.n
        # 2N^3 nu: 2(3N - 2) at a leaf, 12abc at an internal vertex
        dtype = np.int64 if n < _INT64_METRIC_LEAVES else object
        w = np.empty(2 * n - 2, dtype)
        w[:n] = 2 * (3 * n - 2)
        w[n:] = 12 * self.component_counts().astype(dtype, copy=False).prod(axis=1)
        steps = np.zeros(len(w) + 1, w.dtype)
        steps[idx.first] = w
        # leaf 1's subtree is the whole tree and never closes
        np.subtract.at(steps, idx.first[1:] + 2 * idx.leafcnt[1:] - 1, w[1:])
        s = np.cumsum(steps)[idx.first]
        px, py = self._positions(x, y)
        lca = idx.lca(px, py)
        return s[px] + s[py] - 2 * s[lca] + w[lca] - w[px] // 2 - w[py] // 2

    def quartet_partners(self, a, b, c, d) -> np.ndarray:
        """For arrays of distinct leaf ids (any shapes that broadcast
        together): which of b, c, d pairs with a.

        Returns codes 1, 2, 3 for partner b, c, d, in the broadcast shape.
        By the four-point condition, ab|cd holds iff depth(lca(a, b)) +
        depth(lca(c, d)) is the largest of the three pair sums; in a binary
        tree four distinct leaves make that maximum strict.  The six pairwise
        LCAs of a block of at most ``_QUARTET_BLOCK`` rows are found in one
        stacked :meth:`_Index.leaf_key` call, which bounds the temporaries;
        the same six pairs show a repeated leaf.
        """
        idx = self.index
        quad = self._positions(a, b, c, d, leaves=True)
        shape = quad.shape[1:]
        quad = quad.reshape(4, -1)
        out = np.empty(quad.shape[1], np.int64)
        for lo in range(0, len(out), _QUARTET_BLOCK):
            rows = slice(lo, lo + _QUARTET_BLOCK)
            left, right = quad[_PAIRS, rows]
            if (left == right).any():
                raise StructureError("quartets need four distinct leaves")
            depth = idx.leaf_key(left, right) >> idx.shift
            out[rows] = (depth[0::2] + depth[1::2]).argmax(axis=0) + 1
        return out.reshape(shape)

    def triple_component_counts(self, a, b, c) -> np.ndarray:
        """Component leaf counts at the median, for arrays of distinct leaf
        ids; shape (len, 3), row order matching the sample order."""
        idx = self.index
        pts = self._positions(a, b, c, leaves=True)
        # the pairs (a, b), (b, c), (c, a)
        if (pts == pts[[1, 2, 0]]).any():
            raise StructureError("component counts need three distinct leaves")
        v = idx.median(*pts, leaves=True)
        return np.stack([idx.component_leaf_count(v, p) for p in pts], axis=1)

    def sample_distinct_leaves(self, count: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """(count, k) array of leaf ids, each row uniform over the ordered
        k-tuples of distinct leaves: iid rows with a repeat redrawn while k
        iid leaves are distinct with probability (n)_k / n^k >= 1/8; past
        that, a uniform k-subset per row by Floyd's algorithm, shuffled."""
        n = self.n
        if k > n:
            raise StructureError(f"cannot draw {k} distinct leaves from {n}")
        if np.prod(1 - np.arange(k) / n) < 1 / 8:
            out = np.empty((count, k), np.int64)
            for j, top in enumerate(range(n - k + 1, n + 1)):
                # a leaf t <= top the row holds already is replaced by top
                t = rng.integers(1, top + 1, size=count)
                out[:, j] = np.where((out[:, :j] == t[:, None]).any(axis=1), top, t)
            return rng.permuted(out, axis=1, out=out)
        out = rng.integers(1, n + 1, size=(count, k))
        while True:
            bad = np.zeros(count, dtype=bool)
            for i in range(k):
                for j in range(i + 1, k):
                    bad |= out[:, i] == out[:, j]
            if not bad.any():
                return out
            out[bad] = rng.integers(1, n + 1, size=(int(bad.sum()), k))
