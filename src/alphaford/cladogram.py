"""Leaf-labeled unrooted binary trees (cladograms) and their edit moves.

An m-cladogram has leaves labeled 1..m (vertex ids 1..m), unlabeled internal
vertices of degree exactly 3 (vertex ids -1..-(m-2)), no edge lengths.  Array
code puts vertex v at position v - 1 if it is a leaf and m - 1 - v if it is
internal.  All operations are pure: they return new :class:`Cladogram`
objects and never mutate their inputs.

Edges arrive in one of two forms, and both are validated completely, with
the same checks and messages: ids, edge count, degrees, connectivity.  An
(E, 2) signed integer numpy array (the Ford samplers' output) is checked in
numpy, and one sort of its half-edges puts each vertex's neighbours in fixed
slots; any other iterable of pairs (edit moves, chain snapshots, Newick,
hand-built lists) is checked pair by pair into neighbour lists, which are
then laid out in the same slots.  The slots feed one walk, depth first from
leaf 1, which is the connectivity check and keeps the preorder of positions
(``_preorder``) and each position's parent (``_parent``, -1 for leaf 1).
:attr:`Cladogram.splits` and the tree index (:mod:`alphaford.tree`) read
that walk instead of walking again.

Identity of labeled cladograms goes through :meth:`Cladogram.key`, the sorted
tuple of internal-edge bipartitions encoded by the side that excludes label 1.
Two cladograms are isomorphic as labeled trees iff their keys are equal.
``==`` and ``hash`` compare an O(m) code read from the recorded preorder
instead, so comparing two big trees builds no splits.  The same splits as
integer bitmasks, :attr:`Cladogram.splits`, carry the exact layer: leaf
deletion, cherries and chain moves act on them directly.

A state's position in :func:`enumerate_cladograms` is found through one
integer code, the rooted-triple code (:func:`_triple_code`): one base-3 digit
per label triple j < k < l other than 1, the label that leaf 1 pairs with.
It is read from a row of split masks in any order, repeats and trivial
masks included, and equally from quartet queries on a sampled tree.  One
cached table per m holds the states' masks in key order with their sorted
codes, and :func:`_locate` turns codes into positions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Cladogram",
    "StructureError",
    "double_factorial",
    "num_cladograms",
    "enumerate_cladograms",
    "shape",
    "to_newick",
    "from_newick",
    "MAX_ENUMERATION_LEAVES",
]

MAX_ENUMERATION_LEAVES = 8

Edge = tuple[int, int]


class StructureError(ValueError):
    """Raised when an operation would violate the cladogram invariants."""


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Cladogram:
    """Immutable leaf-labeled unrooted binary tree.

    Parameters
    ----------
    m : int
        Number of leaves (>= 2).  Leaves carry vertex ids 1..m.
    edges : (E, 2) signed integer ndarray, or iterable of (int, int)
        Undirected edges.  Internal vertices must use negative ids; others
        than -1..-(m-2) are renumbered onto those in descending order.  An
        integer array is validated in numpy and :attr:`edges` is built from
        it only when read; any other iterable is validated pair by pair.
        Both forms check the same things, with the same messages.
    """

    __slots__ = (
        "m", "_edges", "_array", "_adj", "_preorder", "_parent", "_splits", "_key", "_code_", "_hash",
    )

    def __init__(self, m: int, edges: Iterable[Edge] | np.ndarray):
        self.m = int(m)
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._splits: tuple[int, ...] | None = None
        self._key = None
        self._code_: tuple[int, ...] | None = None
        self._hash = None
        self._edges: tuple[Edge, ...] | None = None
        self._array: np.ndarray | None = None
        if isinstance(edges, np.ndarray) and edges.dtype.kind == "i":
            self._array = self._validate_array(edges)
            return
        edges = sorted(_edge(u, v) for u, v in edges)
        if edges and edges[0][0] < 2 - self.m:
            internal = sorted({x for e in edges for x in e if x < 0})
            new = {v: i - len(internal) for i, v in enumerate(internal)}  # monotone: order kept
            edges = [(new.get(u, u), new.get(v, v)) for u, v in edges]
        self._edges = tuple(edges)
        self._validate_pairs()

    # -- structure ----------------------------------------------------------

    def _check_size(self, n_edges: int) -> None:
        m = self.m
        if m < 2:
            raise StructureError(f"need at least 2 leaves, got {m}")
        if n_edges != 2 * m - 3:
            raise StructureError(f"{m}-cladogram needs {2 * m - 3} edges, got {n_edges}")

    def _id_error(self) -> StructureError:
        m = self.m
        return StructureError(f"vertex ids must be leaves 1..{m} and internal -1..{2 - m}")

    def _degree_error(self, p: int, degree: int) -> StructureError:
        m = self.m
        return StructureError(f"vertex {p + 1 if p < m else m - 1 - p} has degree {degree}")

    def _validate_pairs(self) -> None:
        m = self.m
        self._check_size(len(self._edges))
        V = 2 * m - 2
        # edges are sorted, so each list comes out in ascending vertex id
        nbr: list[list[int]] = [[] for _ in range(V)]
        for u, v in self._edges:
            if u < 2 - m or v > m or u == 0 or v == 0:
                raise self._id_error()
            pu = u - 1 if u > 0 else m - 1 - u
            pv = v - 1 if v > 0 else m - 1 - v
            nbr[pu].append(pv)
            nbr[pv].append(pu)
        slots: list[int] = []
        for p, nb in enumerate(nbr):
            if len(nb) != (1 if p < m else 3):
                raise self._degree_error(p, len(nb))
            slots += nb
        self._walk(slots)

    def _validate_array(self, edges: np.ndarray) -> np.ndarray:
        """The checks of :meth:`_validate_pairs` on an (E, 2) integer array,
        in numpy; returns the edges with each row ordered (u, v), u < v."""
        m = self.m
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise StructureError(f"an edge array must have shape (E, 2), got {edges.shape}")
        edges = edges.astype(np.int64)
        if edges.size and edges.min() < 2 - m:
            internal = np.unique(edges[edges < 0])
            edges = np.where(edges < 0, np.searchsorted(internal, edges) - len(internal), edges)
        self._check_size(len(edges))
        if edges.min() < 2 - m or edges.max() > m or not edges.all():
            raise self._id_error()
        V = 2 * m - 2
        pos = np.where(edges > 0, edges - 1, m - 1 - edges)
        degree = np.bincount(pos.ravel(), minlength=V)
        expected = np.full(V, 3)
        expected[:m] = 1
        bad = np.flatnonzero(degree != expected)
        if bad.size:
            raise self._degree_error(int(bad[0]), int(degree[bad[0]]))
        # every half-edge as one key, tail position first, then the head's
        # vertex id: with the degrees checked, one sort puts leaf p's
        # neighbour in slot p and internal p's three in slots 3p - 2m ..
        # 3p - 2m + 2, in ascending vertex id
        width = 2 * m + 1
        key = np.sort(pos.ravel() * width + (edges[:, ::-1].ravel() + m))
        head = key % width - m
        self._walk(np.where(head > 0, head - 1, m - 1 - head).tolist())
        return np.sort(edges, axis=1)

    def _walk(self, slots: list[int]) -> None:
        """Depth-first walk from leaf 1 over the neighbour slots (leaf p's
        neighbour at p, internal p's at 3p - 2m .. 3p - 2m + 2, each run in
        ascending vertex id).  With the edge count and degrees checked, the
        graph is a tree iff the walk reaches every vertex; its preorder and
        parents are kept for :attr:`splits` and the index."""
        m = self.m
        V = 2 * m - 2
        shift = 2 * m
        parent = [-1] * V
        top = slots[0]  # leaf 1's neighbour; a leaf's only neighbour is its parent
        parent[top] = 0
        order = [0]
        stack = [top]
        while stack:
            v = stack.pop()
            order.append(v)
            if v >= m:  # three slots, unrolled: a slice per vertex costs more
                s = 3 * v - shift
                w = slots[s]
                if w and parent[w] < 0:  # not leaf 1, not seen
                    parent[w] = v
                    stack.append(w)
                w = slots[s + 1]
                if w and parent[w] < 0:
                    parent[w] = v
                    stack.append(w)
                w = slots[s + 2]
                if w and parent[w] < 0:
                    parent[w] = v
                    stack.append(w)
        if len(order) != V:
            raise StructureError("tree is not connected")
        self._preorder = order
        self._parent = parent

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted edges ``(u, v)``, u < v, with canonical internal ids."""
        if self._edges is None:
            a = self._array
            a = a[np.lexsort((a[:, 1], a[:, 0]))]
            self._edges = tuple(map(tuple, a.tolist()))
            self._array = None
        return self._edges

    @property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        if self._adj is None:
            adj: dict[int, list[int]] = {}
            for u, v in self.edges:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        return self._adj

    @property
    def leaves(self) -> range:
        return range(1, self.m + 1)

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(range(-1, 1 - self.m, -1))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(self.adjacency)

    # -- canonical identity --------------------------------------------------

    @property
    def splits(self) -> tuple[int, ...]:
        """Internal-edge splits as sorted integer bitmasks.

        Bit x stands for label x, and each split is stored as its side
        without label 1: rooted at leaf 1, the leaf set below the edge.  One
        pass over the recorded preorder, backwards, computes them all.
        """
        if self._splits is None:
            m, order, parent = self.m, self._preorder, self._parent
            side = [2 << p for p in range(m)] + [0] * (m - 2)
            for v in reversed(order[2:]):  # children before parents
                side[parent[v]] |= side[v]
            top = order[1]  # leaf 1's neighbour: its edge is external
            self._splits = tuple(sorted(side[v] for v in range(m, 2 * m - 2) if v != top))
        return self._splits

    @property
    def key(self) -> tuple:
        """Canonical key: ``(m, sorted internal-edge splits)``.

        Each split is the sorted tuple of leaf labels on the bipartition side
        that does not contain label 1; external edges are excluded.  Equal
        keys characterize labeled isomorphism, and the encoding is stable
        across processes (plain integer tuples).
        """
        if self._key is None:
            self._key = _split_key(self.m, self.splits)
        return self._key

    @property
    def _code(self) -> tuple[int, ...]:
        """O(m) canonical code, read from the recorded preorder.

        Rooted at leaf 1, each internal vertex is named by the larger of its
        two children's smallest leaf labels, a bijection onto 3..m.  Entry i
        is the name of the parent of leaf i + 2 for i < m - 1, and of the
        vertex named i - m + 4 after that (leaf 1 standing in for the parent
        of leaf 1's neighbour).
        """
        if self._code_ is None:
            m, order, parent = self.m, self._preorder, self._parent
            low = list(range(1, m + 1)) + [0] * (m - 2)  # smallest label below
            name = list(range(1, m + 1)) + [0] * (m - 2)
            for v in reversed(order[2:]):  # children before parents
                p, x = parent[v], low[v]
                if low[p]:
                    name[p] = max(low[p], x)
                    low[p] = min(low[p], x)
                else:
                    low[p] = x
            code = [0] * (2 * m - 3)
            for v in order[1:]:
                code[name[v] - 2 if v < m else name[v] + m - 4] = name[parent[v]]
            self._code_ = tuple(code)
        return self._code_

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cladogram):
            return NotImplemented
        return self.m == other.m and self._code == other._code

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self._code))
        return self._hash

    def __repr__(self) -> str:
        return f"Cladogram(m={self.m}, {to_newick(self)!r})"

    # -- edit moves -----------------------------------------------------------

    def insert_leaf(self, edge: Edge, new_label: int | None = None) -> "Cladogram":
        """Insert a leaf in the middle of ``edge``.

        Labels >= ``new_label`` are shifted up by one, then a new internal
        vertex ``1 - m`` subdivides the edge and connects to the new leaf.
        With the default ``new_label = m + 1`` no shifting occurs.
        """
        m = self.m
        if new_label is None:
            new_label = m + 1
        if not 1 <= new_label <= m + 1:
            raise StructureError(f"new label {new_label} out of range 1..{m + 1}")
        e = _edge(*edge)
        if e not in self.edges:
            raise StructureError(f"{e} is not an edge of this cladogram")

        def relab(v: int) -> int:
            return v + 1 if 0 < new_label <= v else v

        new_edges = [(relab(u), relab(v)) for u, v in self.edges if (u, v) != e]
        new_edges += [(1 - m, relab(e[0])), (1 - m, relab(e[1])), (1 - m, new_label)]
        return Cladogram(m + 1, new_edges)

    def delete_leaf(self, label: int) -> "Cladogram":
        """Remove leaf ``label``, suppress the degree-2 vertex left behind,
        and shift labels > ``label`` down by one."""
        m = self.m
        if m <= 2:
            raise StructureError("cannot delete a leaf from a 2-cladogram")
        if not 1 <= label <= m:
            raise StructureError(f"no leaf labeled {label}")
        v = self.adjacency[label][0]
        a, b = (x for x in self.adjacency[v] if x != label)

        def relab(x: int) -> int:
            return x - 1 if x > label else x

        dropped = {_edge(label, v), _edge(v, a), _edge(v, b)}
        new_edges = [(relab(u), relab(w)) for u, w in self.edges if _edge(u, w) not in dropped]
        new_edges.append((relab(a), relab(b)))
        return Cladogram(m - 1, new_edges)

    # -- combinatorial queries -------------------------------------------------

    def cherries(self) -> frozenset[int]:
        """Leaves whose internal neighbor has exactly two leaf neighbors.

        For m <= 3 every leaf counts as a cherry; this is the degenerate base
        case used by the backward-chain rates.
        """
        if self.m <= 3:
            return frozenset(self.leaves)
        out = []
        for leaf in self.leaves:
            v = self.adjacency[leaf][0]
            if sum(1 for x in self.adjacency[v] if x > 0) == 2:
                out.append(leaf)
        return frozenset(out)


# -- splits as bitmasks ----------------------------------------------------------
#
# The exact layer works on ``Cladogram.splits`` directly: a state is the sorted
# tuple of its split masks, and one-leaf edits act on those integers without
# building a tree.  Trivial splits (one label on either side) are never stored.


# Label tuples of every mask over labels 1..MAX_ENUMERATION_LEAVES, shared by
# the keys of all enumerable states instead of rebuilt for each.
_SMALL_LABELS = tuple(
    tuple(x for x in range(1, MAX_ENUMERATION_LEAVES + 1) if mask >> x & 1)
    for mask in range(1 << (MAX_ENUMERATION_LEAVES + 1))
)


def _labels(mask: int) -> tuple[int, ...]:
    """The labels whose bits are set in ``mask``, ascending."""
    if mask < len(_SMALL_LABELS):
        return _SMALL_LABELS[mask]
    bits = bin(mask)[:1:-1]
    return tuple(i for i, b in enumerate(bits) if b == "1")


def _split_key(m: int, splits: Iterable[int]) -> tuple:
    """:attr:`Cladogram.key` of the m-cladogram with these split masks."""
    return (m, tuple(sorted(_labels(s) for s in splits)))


def _delete_split_leaf(masks: np.ndarray, m: int, k: int) -> np.ndarray:
    """Split masks of ``t.delete_leaf(k)``, one per split mask of the
    m-cladogram t (int64 arrays of any shape).

    Bit k is dropped and higher bits shift down.  For k = 1 old label 2
    becomes label 1, so a mask holding it is replaced by its complement.  The
    two edges joined by the deletion give equal masks, and a split that held
    leaf k on a side of two becomes trivial; both are kept, as the triple
    code (:func:`_triple_code`) ignores them.
    """
    s = (masks & ((1 << k) - 1)) | (masks >> (k + 1) << k)
    return np.where(s & 2, ((1 << m) - 2) ^ s, s)  # labels 1..m-1


def _cherry_mask(splits: Iterable[int], m: int) -> int:
    """Bitmask of :meth:`Cladogram.cherries`: the splits of size 2, and the
    complements of size 2 (label 1 and its sibling)."""
    full = (1 << (m + 1)) - 2  # labels 1..m
    if m <= 3:
        return full
    out = 0
    for s in splits:
        size = s.bit_count()
        if size == 2:
            out |= s
        if size == m - 2:
            out |= full ^ s
    return out


def _insertions(splits: Iterable[int], m: int, k: int) -> list[tuple[tuple[int, ...], bool]]:
    """Every ``insert_leaf(e, new_label=k)`` of the m-cladogram with these
    splits, as ``(unsorted splits, e is external)``, one per edge e.  After
    :func:`_delete_split_leaf` this is one chain move of leaf k.

    Labels >= k shift up.  Edge e is named by its side s_e without label 1
    (a single label for a leaf edge, all labels but 1 for leaf 1's edge).
    Leaf k joins every split s with s_e inside s, and e itself becomes the
    two splits s_e and s_e | k.  Labels are relative to the old label 1,
    so for k = 1 splits holding the new label 1 are complemented.
    """
    low = (1 << k) - 1
    kbit = 1 << k
    full = (1 << (m + 2)) - 2  # labels 1..m+1

    def up(s: int) -> int:
        return (s & low) | (s >> k << (k + 1))

    shifted = [up(s) for s in splits]
    edges = [(up(1 << j), True) for j in range(2, m + 1)]
    edges.append((up((1 << (m + 1)) - 4), True))
    edges += [(s, False) for s in shifted]
    out = []
    for se, external in edges:
        new = {s | kbit if s & se == se else s for s in shifted}
        for s in (se, se | kbit):
            if 2 <= s.bit_count() <= m - 1:
                new.add(s)
        out.append((tuple(full ^ s if s & 2 else s for s in new), external))
    return out


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1 (with (-1)!! = 1)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def num_cladograms(m: int) -> int:
    """|C_m| = (2m-5)!!."""
    if m < 2:
        raise ValueError("m >= 2 required")
    return double_factorial(2 * m - 5)


@lru_cache(maxsize=None)
def enumerate_cladograms(m: int) -> tuple[Cladogram, ...]:
    """All (2m-5)!! labeled m-cladograms, sorted by canonical key.

    Inserting leaf m at every edge of every (m-1)-cladogram, taken from the
    cache, produces each labeled m-cladogram exactly once, so no
    deduplication is needed.
    """
    if not 2 <= m <= MAX_ENUMERATION_LEAVES:
        raise StructureError(
            f"enumeration supports 2 <= m <= {MAX_ENUMERATION_LEAVES}, got {m}"
        )
    if m == 2:
        return (Cladogram(2, [(1, 2)]),)
    trees = [t.insert_leaf(e) for t in enumerate_cladograms(m - 1) for e in t.edges]
    trees.sort(key=lambda t: t.key)
    return tuple(trees)


# -- the state code ----------------------------------------------------------------
#
# Every lookup of an m-cladogram's position in ``enumerate_cladograms(m)`` goes
# through one integer code, computed from split masks by the exact layer and
# from quartet queries by the Monte Carlo shape estimator.


def _triple_code(masks: np.ndarray, m: int) -> np.ndarray:
    """The state code of each row of m-cladogram split masks (int64, the
    masks of a row along the last axis).

    Rooted at label 1, a binary tree is determined by its rooted triples, so
    a state is coded by one digit per triple j < k < l of the other labels,
    in lexicographic order: 1, 2 or 3 as label 1 pairs with j, k or l, the
    codes of :meth:`FiniteMeasureTree.quartet_partners`.  Read in bijective
    base 3, the 35 digits of m = 8 still fit in int64.  Label 1 pairs with j
    iff some mask holds k and l but not j.  A mask of fewer than two labels,
    or of every label but 1, resolves no triple, so the code depends only on
    the set of nontrivial splits in a row: rows need no sorting, and repeats
    and trivial masks are harmless.
    """
    triples = list(itertools.combinations(range(2, m + 1), 3))
    values = np.arange(1 << (m + 1))
    # bit i of first[v] (second[v]): mask v holds k and l but not j (j and l
    # but not k) of triple i
    first, second = np.zeros((2, len(values)), dtype=np.int64)
    for i, (j, k, l) in enumerate(triples):
        part = values & ((1 << j) | (1 << k) | (1 << l))
        first[part == (1 << k) | (1 << l)] |= 1 << i
        second[part == (1 << j) | (1 << l)] |= 1 << i
    a = np.bitwise_or.reduce(first[masks], axis=-1)
    b = np.bitwise_or.reduce(second[masks], axis=-1)
    code = np.zeros(masks.shape[:-1], dtype=np.int64)
    for i in range(len(triples)):
        code = 3 * code + 3 - 2 * (a >> i & 1) - (b >> i & 1)
    return code


@lru_cache(maxsize=None)
def _state_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split masks of ``enumerate_cladograms(m)``, an (S, m - 3) int64
    array in state order (no columns for m < 4), their codes sorted, and the
    state position of each sorted code."""
    states = enumerate_cladograms(m)
    masks = np.array([t.splits for t in states], dtype=np.int64).reshape(len(states), max(m - 3, 0))
    codes = _triple_code(masks, m)
    order = np.argsort(codes)
    return masks, codes[order], order


def _locate(m: int, codes: np.ndarray) -> np.ndarray:
    """Positions in ``enumerate_cladograms(m)`` of the states with these
    codes (any shape); a code of no m-cladogram raises ``StructureError``."""
    _, known, order = _state_table(m)
    at = np.searchsorted(known, codes)
    missing = known[np.minimum(at, len(known) - 1)] != codes
    if missing.any():
        code = np.asarray(codes)[missing].flat[0]
        raise StructureError(f"{code} is not the code of a {m}-cladogram")
    return order[at]


@lru_cache(maxsize=None)
def _deletions(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (S, m) arrays over ``enumerate_cladograms(m)``: in row s, column
    k - 1, the position of ``t.delete_leaf(k)`` in ``enumerate_cladograms(m - 1)``
    (int64), and whether leaf k is a cherry of t (bool)."""
    masks = _state_table(m)[0]
    # a leaf at a time: the (S, m - 3) temporaries of one deletion stay small
    reduced = (_delete_split_leaf(masks, m, k) for k in range(1, m + 1))
    rows = [_locate(m - 1, _triple_code(r, m - 1)) for r in reduced]
    states = enumerate_cladograms(m)
    cherries = np.fromiter((_cherry_mask(t.splits, m) for t in states), np.int64, len(states))
    return np.stack(rows, axis=1), (cherries[:, None] & (2 << np.arange(m))) != 0


def shape(tree, samples: Sequence[int]) -> Cladogram:
    """Cladogram spanned by distinct leaves ``samples`` of ``tree``.

    ``tree`` is anything exposing ``branch_point(x, y, z)`` (a finite measure
    tree).  Leaf i of the result carries label i, matching the order of
    ``samples``.  Built incrementally: each new sample attaches strictly
    inside a unique edge of the current spanned subtree because samples are
    leaves of a binary tree.
    """
    m = len(samples)
    if m < 2:
        raise StructureError("need at least 2 sampled leaves")
    if len(set(samples)) != m:
        raise StructureError("sampled leaves must be pairwise distinct")
    edges: list[Edge] = [(1, 2)]
    timg = {1: samples[0], 2: samples[1]}
    for j in range(3, m + 1):
        u = samples[j - 1]
        w = 2 - j  # leaf j attaches at the next internal id
        for i, (p, q) in enumerate(edges):
            z = tree.branch_point(timg[p], timg[q], u)
            if z != timg[p] and z != timg[q]:
                edges[i] = _edge(p, w)
                edges.append(_edge(q, w))
                edges.append(_edge(w, j))
                timg[w] = z
                timg[j] = u
                break
        else:
            raise StructureError("no attachment edge found; tree is not binary")
    return Cladogram(m, edges)


# -- Newick serialization ------------------------------------------------------


def to_newick(t: Cladogram) -> str:
    """Serialize with integer leaf labels, rooted at the internal vertex
    adjacent to leaf 1 (the sole edge for m = 2).  Iterative, so deep trees
    serialize at any depth."""
    if t.m == 2:
        return "(1,2);"
    adj = t.adjacency
    out = []
    stack: list = [(adj[1][0], 0)]  # (vertex, parent) or literal text
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, parent = item
        if v > 0:
            out.append(str(v))
            continue
        out.append("(")
        stack.append(")")
        kids = [w for w in adj[v] if w != parent]
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], v))
            if i:
                stack.append(",")
    return "".join(out) + ";"


def from_newick(s: str) -> Cladogram:
    """Parse the output of :func:`to_newick` back into a cladogram.

    Accepts any binary unrooted Newick with integer leaf labels: the top
    level must have 3 children (or 2 for the two-leaf tree), every other
    internal node exactly 2.  Internal vertices are numbered -1, -2, ... in
    the order their parentheses open.  Iterative, so nesting depth is
    unlimited.
    """
    s = s.strip()
    if s.endswith(";"):
        s = s[:-1]
    n = len(s)
    pos = 0
    open_nodes: list[tuple[int, list[int]]] = []  # (vertex, children so far)
    children: dict[int, list[int]] = {}
    next_id = 0
    while True:
        if pos < n and s[pos] == "(":
            next_id -= 1
            open_nodes.append((next_id, []))
            pos += 1
            continue
        start = pos
        while pos < n and s[pos] not in ",()":
            pos += 1
        token = s[start:pos]
        if not token.isdecimal() or int(token) == 0:
            raise StructureError(f"leaf label {token!r} is not a positive integer")
        node = int(token)
        # attach the finished node, closing every parenthesis that follows it
        while open_nodes:
            open_nodes[-1][1].append(node)
            if pos < n and s[pos] == ",":
                pos += 1
                break
            if pos < n and s[pos] == ")":
                pos += 1
                node, kids = open_nodes.pop()
                children[node] = kids
                continue
            raise StructureError(f"expected ')' at position {pos}")
        else:
            break
    if pos != n:
        raise StructureError(f"trailing characters at position {pos}")
    top = children.get(node, [node])
    if sorted(top) == [1, 2]:
        return Cladogram(2, [(1, 2)])
    if len(top) != 3:
        raise StructureError("unrooted Newick must have 3 children at the top level")
    edges: list[Edge] = []
    for v, kids in children.items():
        if v != node and len(kids) != 2:
            raise StructureError("internal Newick nodes must be binary")
        edges += [_edge(v, w) for w in kids]
    m = sum(1 for u, v in edges for x in (u, v) if x > 0)
    return Cladogram(m, edges)
