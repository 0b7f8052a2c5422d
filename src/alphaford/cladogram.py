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
(``_preorder``) and each position's parent (``_parent``, -1 for leaf 1) as
two read-only int64 arrays, the one stored copy of the tree: the tree index
(:mod:`alphaford.tree`) shares them, and :attr:`Cladogram.splits` and the
edges of an array input are read off them.  Leaf counts, vertex ids and
edit labels must be integers (numpy's too), or ``TypeError`` is raised.

Identity of labeled cladograms goes through :meth:`Cladogram.key`, the sorted
tuple of internal-edge bipartitions encoded by the side that excludes label 1.
Two cladograms are isomorphic as labeled trees iff their keys are equal.
``==`` and ``hash`` compare an O(m) code read from the recorded preorder
instead, so comparing two big trees builds no splits.

The exact layer runs on the same splits as integer bitmasks and builds no
tree.  :func:`enumerate_cladograms` returns one cached table per m, a
:class:`Cladograms`: every m-cladogram as a sorted row of masks, in key
order, leaf m inserted at every edge of every (m-1)-cladogram by
:func:`_insert_split_leaf`.  Leaf deletion, cherries and chain moves act on
whole tables in numpy, and the table's trees are read off the rows only
when asked for.  A row's position is found through one integer code, the
rooted-triple code (:func:`_triple_code`): one base-3 digit per label
triple j < k < l other than 1, the label that leaf 1 pairs with.  It is
read from masks in any order, repeats and trivial masks included, and
equally from quartet queries on a sampled tree;
:meth:`Cladograms.locate` turns codes into positions.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Cladogram",
    "StructureError",
    "double_factorial",
    "num_cladograms",
    "Cladograms",
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


def _integer(x, what: str) -> int:
    """x as a Python int: integers (numpy's too) are read through
    ``operator.index``, and bools, floats and strings raise ``TypeError``."""
    if isinstance(x, (bool, np.bool_)) or not hasattr(x, "__index__"):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return operator.index(x)


def _edge(u: int, v: int) -> Edge:
    """The edge (u, v), u < v, of Python ints; ids must be integers (numpy's too)."""
    if type(u) is not int or type(v) is not int:  # one cheap test for Python ints
        for x in (u, v):
            if isinstance(x, (bool, np.bool_)) or not hasattr(x, "__index__"):
                raise TypeError(f"vertex ids must be integers, got {type(x).__name__} ids")
        u, v = operator.index(u), operator.index(v)
    return (u, v) if u < v else (v, u)


class Cladogram:
    """Immutable leaf-labeled unrooted binary tree.

    Parameters
    ----------
    m : int
        Number of leaves (>= 2), an integer (numpy's too; a bool, float or
        string raises ``TypeError``, as an id does).  Leaves carry ids 1..m.
    edges : (E, 2) signed integer ndarray, or iterable of (int, int)
        Undirected edges.  Internal vertices must use negative ids; others
        than -1..-(m-2) are renumbered onto those in descending order.  An
        integer array is validated in numpy and :attr:`edges` is read off
        the walk when asked for; any other iterable is validated pair by
        pair.  Both forms check the same things, with the same messages.
    """

    __slots__ = (
        "m", "_edges", "_adj", "_preorder", "_parent", "_splits", "_key", "_code_", "_hash",
    )

    def __init__(self, m: int, edges: Iterable[Edge] | np.ndarray):
        self.m = _integer(m, "a leaf count")
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._splits: tuple[int, ...] | None = None
        self._key = None
        self._code_: tuple[int, ...] | None = None
        self._hash = None
        self._edges: tuple[Edge, ...] | None = None
        if isinstance(edges, np.ndarray) and edges.dtype.kind != "u":  # uint64 wraps in int64
            self._validate_array(edges)
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

    def _validate_array(self, edges: np.ndarray) -> None:
        """The checks of :meth:`_validate_pairs` on an (E, 2) integer array,
        in numpy, ending in the same walk."""
        if edges.dtype.kind != "i":
            raise TypeError(f"vertex ids must be integers, got {edges.dtype} ids")
        m = self.m
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise StructureError(f"an edge array must have shape (E, 2), got {edges.shape}")
        self._check_size(len(edges))
        edges = edges.astype(np.int64, copy=False)
        low = edges.min()
        if low < 2 - m:
            internal = np.unique(edges[edges < 0])
            edges = np.where(edges < 0, np.searchsorted(internal, edges) - len(internal), edges)
            low = -len(internal)
        if low < 2 - m or edges.max() > m or not edges.all():
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

    def _walk(self, slots: list[int]) -> None:
        """Depth-first walk from leaf 1 over the neighbour slots (leaf p's
        neighbour at p, internal p's at 3p - 2m .. 3p - 2m + 2, each run in
        ascending vertex id).  An internal vertex's two slots other than the
        one holding its parent are its children a, b, and b, the larger id,
        is a leaf whenever either is.  The walk visits b next: a leaf b at
        once, going on with a; an internal b after pushing a for later.  Any
        other leaf is followed by the vertex popped from the stack.  The walk
        stops when the stack runs out, or at the latest after V - 1 turns,
        each a visit and at most one leaf visited at once.  With V - 1 edges
        and the degrees checked, the graph is a tree iff it is connected, so
        iff the walk, which never leaves leaf 1's component, reaches every
        vertex; a tree's walk visits each vertex once.  Its preorder and
        parents are kept, read-only, for :attr:`splits`, :attr:`edges` and
        the index."""
        m = self.m
        V = 2 * m - 2
        shift = 2 * m
        parent = [-1] * V
        top = slots[0]  # leaf 1's neighbour; a leaf's only neighbour is its parent
        parent[top] = 0
        order = [0]
        stack = [-1]  # popping -1 ends a walk that runs out early
        push, pop, visit = stack.append, stack.pop, order.append
        v = top
        for _ in range(V - 1):
            visit(v)
            if v >= m:  # three slots, unrolled: a slice per vertex costs more
                s = 3 * v - shift
                a, b, p = slots[s], slots[s + 1], parent[v]
                if a == p:
                    a, b = b, slots[s + 2]
                elif b == p:
                    b = slots[s + 2]
                parent[a] = parent[b] = v
                if b < m:
                    visit(b)
                    v = a
                else:
                    push(a)
                    v = b
            else:
                v = pop()
                if v < 0:
                    break
        preorder = np.array(order, np.int64)
        seen = np.zeros(V, bool)
        seen[preorder] = True
        if not seen.all():
            raise StructureError("tree is not connected")
        self._preorder = preorder
        self._parent = np.array(parent, np.int64)
        self._preorder.flags.writeable = self._parent.flags.writeable = False

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Sorted edges ``(u, v)``, u < v, with canonical internal ids."""
        if self._edges is None:
            # an array input: each position but leaf 1's gives its parent edge
            m = self.m
            ends = np.stack([np.arange(1, 2 * m - 2), self._parent[1:]])
            ends = np.sort(np.where(ends < m, ends + 1, m - 1 - ends), axis=0)
            ends = ends[:, np.lexsort(ends[::-1])]
            self._edges = tuple(zip(*ends.tolist()))
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
            m, order, parent = self.m, self._preorder.tolist(), self._parent.tolist()
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
            m, order, parent = self.m, self._preorder.tolist(), self._parent.tolist()
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
        new_label = m + 1 if new_label is None else _integer(new_label, "a leaf label")
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
        label = _integer(label, "a leaf label")
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


# Label tuples of every mask over labels 1..MAX_ENUMERATION_LEAVES, shared by
# the keys of all enumerable states instead of rebuilt for each.
_SMALL_LABELS = tuple(
    tuple(x for x in range(1, MAX_ENUMERATION_LEAVES + 1) if mask >> x & 1)
    for mask in range(1 << (MAX_ENUMERATION_LEAVES + 1))
)
# The same tuples as one object array, gathered by arrays of masks.
_LABEL_TUPLES = np.fromiter(_SMALL_LABELS, dtype=object, count=len(_SMALL_LABELS))
# Each such mask's rank in the order of label tuples (the key's order), and size.
_BY_LABELS = sorted(range(len(_SMALL_LABELS)), key=_SMALL_LABELS.__getitem__)
_LABEL_RANK = np.array(sorted(range(len(_BY_LABELS)), key=_BY_LABELS.__getitem__))
_SIZE = np.array([len(labels) for labels in _SMALL_LABELS])


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


def _insert_split_leaf(masks: np.ndarray, m: int, k: int) -> np.ndarray:
    """Split masks of every ``t.insert_leaf(e, new_label=k)`` of an (S, m - 3)
    table of m-cladograms t: an (S, 2m - 3, m - 2) int64 array, a row per
    edge e, unsorted.  After :func:`_delete_split_leaf`, a chain move of leaf k.

    Edges run leaf edges 2..m, leaf 1's edge, then the internal edges in row
    order, each named by its side s_e without label 1.  Labels >= k shift
    up, leaf k joins every mask s with s_e inside s, and e adds s_e | k for
    a leaf edge and s_e otherwise.  Labels are relative to the old label 1,
    so for k = 1 masks holding the new label 1 are complemented."""
    leaf = [1 << j for j in range(2, m + 1)] + [(1 << (m + 1)) - 4]
    side = np.concatenate([np.broadcast_to(leaf, (len(masks), m)), masks], axis=1)
    side = ((side & ((1 << k) - 1)) | (side >> k << (k + 1)))[:, :, None]  # labels >= k shift up
    old = side[:, None, m:, 0]
    out = np.concatenate([np.where(old & side == side, old | 1 << k, old), side], axis=2)
    out[:, : m - 1, -1] |= 1 << k  # a leaf edge adds s_e | k
    return np.where(out & 2, ((1 << (m + 2)) - 2) ^ out, out)  # labels 1..m+1


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1 (with (-1)!! = 1)."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def num_cladograms(m: int) -> int:
    """|C_m| = (2m-5)!!."""
    m = _integer(m, "a leaf count")
    if m < 2:
        raise ValueError("m >= 2 required")
    return double_factorial(2 * m - 5)


# -- the state code and the state table ----------------------------------------------
#
# A state's position in ``enumerate_cladograms(m)`` is looked up by one integer
# code, read from split masks and from quartet queries on a sampled tree.


@lru_cache(maxsize=None)
def _triple_tables(m: int):
    """The read-only tables of :func:`_triple_code` for m labels, built once
    per m: ``first`` and ``second``, the digit bitsets of every mask over
    labels 1..m; ``weights``, the base-3 weight 3^(T-1-i) of digit i of the
    T triples, descending; ``table``, a (ceil(T / 8), 256) array whose row r
    sums the weights of the bits set in a byte read at bit 8r; and ``base``,
    3 times the sum of the weights."""
    triples = np.array(list(itertools.combinations(range(2, m + 1), 3)), np.int64).reshape(-1, 3)
    j, k, l = (1 << triples.T)[:, None, :]
    bits = 1 << np.arange(len(triples), dtype=np.int64)
    part = np.arange(1 << (m + 1))[:, None] & (j | k | l)
    # bit i of first[v] (second[v]): mask v holds k and l but not j (j and l
    # but not k) of triple i
    first = np.where(part == k | l, bits, 0).sum(axis=1)
    second = np.where(part == j | l, bits, 0).sum(axis=1)
    weights = 3 ** np.arange(len(triples) - 1, -1, -1, dtype=np.int64)
    padded = np.zeros(-len(triples) % 8 + len(triples), np.int64)
    padded[: len(triples)] = weights
    byte_bits = np.arange(256)[:, None] >> np.arange(8) & 1
    table = (padded.reshape(-1, 1, 8) * byte_bits).sum(axis=2)
    for a in (first, second, weights, table):
        a.flags.writeable = False
    return first, second, weights, table, 3 * int(weights.sum())


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

    The digit bitsets a (label 1 pairs with j) and b (with k) of a row are
    ORed from tables built once per m (:func:`_triple_tables`).  Digit i is
    3 - 2 a_i - b_i, so the code is 3 sum(w) - 2 W(a) - W(b), where W sums
    the weights w_i of a bitset's digits, one 256-entry table per byte.
    """
    first, second, _, table, base = _triple_tables(m)
    a = np.bitwise_or.reduce(first[masks], axis=-1)
    b = np.bitwise_or.reduce(second[masks], axis=-1)
    code = np.full(masks.shape[:-1], base, dtype=np.int64)
    for shift, row in zip(range(0, 8 * len(table), 8), table):
        code -= 2 * row[a >> shift & 255] + row[b >> shift & 255]
    return code


class Cladograms(Sequence):
    """The m-cladograms in key order as one table, ``masks``: an (S, m - 3)
    int64 array (no columns for m < 4), a sorted row of split masks per
    state.  The exact layer reads it and its derived arrays and builds no
    tree; the :class:`Cladogram` items are read off the rows when asked for."""

    def __init__(self, m: int, masks: np.ndarray):
        self.m, self.masks = m, masks
        codes = _triple_code(masks, m)
        self._order = np.argsort(codes)
        self._codes = codes[self._order]

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        return self._trees[i]

    def locate(self, codes: np.ndarray) -> np.ndarray:
        """Positions of the states with these codes (any shape); a code of no
        m-cladogram raises ``StructureError``."""
        at = np.searchsorted(self._codes, codes)
        missing = self._codes[np.minimum(at, len(self) - 1)] != codes
        if missing.any():
            code = np.asarray(codes)[missing].flat[0]
            raise StructureError(f"{code} is not the code of a {self.m}-cladogram")
        return self._order[at]

    @cached_property
    def keys(self) -> tuple:
        """:attr:`Cladogram.key` of each state: its row sorted by the rank of
        each mask's label tuple, the tuples shared from ``_SMALL_LABELS`` and
        gathered for the whole table at once by one object-array lookup."""
        masks, m = self.masks, self.m
        rows = np.take_along_axis(masks, np.argsort(_LABEL_RANK[masks], axis=1), axis=1)
        return tuple([(m, tuple(row)) for row in _LABEL_TUPLES[rows].tolist()])

    @cached_property
    def cherries(self) -> np.ndarray:
        """(S, m) bool: whether leaf k of state s is a cherry, a label of a mask
        of size 2 or of the complement of one of size m - 2 (all for m <= 3)."""
        m, masks, size = self.m, self.masks, _SIZE[self.masks]
        if m <= 3:
            return np.ones((1, m), dtype=bool)
        pairs = np.where(size == 2, masks, 0) | np.where(size == m - 2, ((1 << (m + 1)) - 2) ^ masks, 0)
        return (np.bitwise_or.reduce(pairs, axis=1)[:, None] & (2 << np.arange(m))) != 0

    @cached_property
    def deletions(self) -> np.ndarray:
        """(S, m) int64: in row s, column k - 1, the position of
        ``t.delete_leaf(k)`` in ``enumerate_cladograms(m - 1)``, t the state s."""
        m, smaller = self.m, enumerate_cladograms(self.m - 1)
        # a leaf at a time: the (S, m - 3) temporaries of one deletion stay small
        reduced = (_delete_split_leaf(self.masks, m, k) for k in range(1, m + 1))
        return np.stack([smaller.locate(_triple_code(r, m - 1)) for r in reduced], axis=1)

    @cached_property
    def _trees(self) -> tuple[Cladogram, ...]:
        """Rooted at leaf 1, a cluster (leaf, mask or the top, labels 2..m) hangs
        from its smallest strict superset; the internal vertex whose children
        have smallest labels i < j gets id 2 - j, as ``insert_leaf`` numbers it."""
        m, masks, n = self.m, self.masks, len(self.masks)
        if m == 2:
            return (Cladogram(2, [(1, 2)]),)
        inner = np.concatenate([masks, np.full((n, 1), (1 << (m + 1)) - 4)], axis=1)
        below = np.concatenate([np.broadcast_to(2 << np.arange(1, m), (n, m - 1)), masks], axis=1)
        c, d = below[:, :, None], inner[:, None, :]
        parent = np.argmin(np.where((c & d == c) & (c != d), _SIZE[d], m), axis=2)  # into inner
        low = np.log2(below & -below).astype(np.int64)[:, :, None]  # smallest label
        name = np.where(parent[:, :, None] == np.arange(m - 2), low, 0).max(axis=1)
        ids = np.concatenate([np.broadcast_to(np.arange(2, m + 1), (n, m - 1)), 2 - name], axis=1)
        up = np.take_along_axis(ids, m - 1 + parent, axis=1)
        up = np.concatenate([up, np.ones((n, 1), np.int64)], axis=1)  # the top hangs off leaf 1
        return tuple(Cladogram(m, e) for e in np.stack([up, ids], axis=2).tolist())


def enumerate_cladograms(m: int) -> Cladograms:
    """All (2m-5)!! labeled m-cladograms, sorted by canonical key: leaf m
    inserted at every edge of every (m-1)-cladogram gives each once, and the
    sorted rows are ordered as their :func:`_split_key` by mask ranks.  The
    table is cached per m, read as a Python int, so numpy's integers share
    it."""
    return _enumerate(_integer(m, "a leaf count"))


@lru_cache(maxsize=None)
def _enumerate(m: int) -> Cladograms:
    if not 2 <= m <= MAX_ENUMERATION_LEAVES:
        raise StructureError(f"enumeration supports 2 <= m <= {MAX_ENUMERATION_LEAVES}, got {m}")
    masks = np.zeros((1, 0), dtype=np.int64)
    if m > 3:
        masks = _insert_split_leaf(_enumerate(m - 1).masks, m - 1, m).reshape(-1, m - 3)
        rank = np.sort(_LABEL_RANK[masks], axis=1)
        masks = np.sort(masks[np.lexsort(rank.T[::-1])], axis=1)
    return Cladograms(m, masks)


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
    the order their parentheses open.  Whitespace around ``(``, ``)``, ``,``
    and ``;``, line breaks included, is ignored; inside a label it is an
    error.  Iterative, so nesting depth is unlimited.
    """
    s = re.sub(r"\s*([(),;])\s*", r"\1", s).strip().removesuffix(";")
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
