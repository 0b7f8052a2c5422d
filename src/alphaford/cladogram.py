"""Leaf-labeled unrooted binary trees (cladograms) and their edit moves.

An m-cladogram has leaves labeled 1..m (vertex ids 1..m), unlabeled internal
vertices of degree exactly 3 (vertex ids -1..-(m-2)), no edge lengths.  Array
code puts vertex v at position v - 1 if it is a leaf and m - 1 - v if it is
internal.  All operations are pure: they return new :class:`Cladogram`
objects and never mutate their inputs.

Validation walks each cladogram once, depth first from leaf 1, and keeps the
preorder of positions (``_preorder``) and each position's parent (``_parent``,
-1 for leaf 1).  :attr:`Cladogram.splits` and the tree index
(:mod:`alphaford.tree`) read that walk instead of walking again.

Identity of labeled cladograms goes through :meth:`Cladogram.key`, the sorted
tuple of internal-edge bipartitions encoded by the side that excludes label 1.
Two cladograms are isomorphic as labeled trees iff their keys are equal.  The
same splits as integer bitmasks, :attr:`Cladogram.splits`, carry the exact
layer: leaf deletion, cherries and chain moves act on them directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

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
    edges : iterable of (int, int)
        Undirected edges.  Internal vertices must use negative ids; others
        than -1..-(m-2) are renumbered onto those in descending order.
    """

    __slots__ = ("m", "edges", "_adj", "_preorder", "_parent", "_splits", "_key", "_hash")

    def __init__(self, m: int, edges: Iterable[Edge]):
        self.m = int(m)
        edges = sorted(_edge(u, v) for u, v in edges)
        if edges and edges[0][0] < 2 - self.m:
            internal = sorted({x for e in edges for x in e if x < 0})
            new = {v: i - len(internal) for i, v in enumerate(internal)}  # monotone: order kept
            edges = [(new.get(u, u), new.get(v, v)) for u, v in edges]
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._splits: tuple[int, ...] | None = None
        self._key = None
        self._hash = None
        self._validate()

    # -- structure ----------------------------------------------------------

    def _validate(self) -> None:
        m = self.m
        if m < 2:
            raise StructureError(f"need at least 2 leaves, got {m}")
        if len(self.edges) != 2 * m - 3:
            raise StructureError(f"{m}-cladogram needs {2 * m - 3} edges, got {len(self.edges)}")
        V = 2 * m - 2
        # edges are sorted, so each list comes out in ascending vertex id
        nbr: list[list[int]] = [[] for _ in range(V)]
        for u, v in self.edges:
            if u < 2 - m or v > m or u == 0 or v == 0:
                raise StructureError(f"vertex ids must be leaves 1..{m} and internal -1..{2 - m}")
            pu = u - 1 if u > 0 else m - 1 - u
            pv = v - 1 if v > 0 else m - 1 - v
            nbr[pu].append(pv)
            nbr[pv].append(pu)
        for p, nb in enumerate(nbr):
            if len(nb) != (1 if p < m else 3):
                raise StructureError(f"vertex {p + 1 if p < m else m - 1 - p} has degree {len(nb)}")
        # with these counts and degrees the graph is a tree iff it is connected;
        # the walk from leaf 1 that checks it is kept for splits and the index
        parent = [-1] * V
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in nbr[v]:
                if w and parent[w] < 0:  # not leaf 1, not seen
                    parent[w] = v
                    stack.append(w)
        if len(order) != V:
            raise StructureError("tree is not connected")
        self._preorder = order
        self._parent = parent

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cladogram):
            return NotImplemented
        return self.m == other.m and self.splits == other.splits

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self.splits))
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


def _delete_split_leaf(splits: Iterable[int], m: int, k: int) -> tuple[int, ...]:
    """Splits of ``t.delete_leaf(k)``, given those of the m-cladogram t.

    Bit k is dropped and higher bits shift down.  For k = 1 old label 2
    becomes label 1, so a split holding it is replaced by its complement.
    The two edges joined by the deletion give equal masks, kept once.
    """
    low = (1 << k) - 1
    full = (1 << m) - 2  # labels 1..m-1
    out = set()
    for s in splits:
        s = (s & low) | (s >> (k + 1) << k)
        if s & 2:
            s ^= full
        if 2 <= s.bit_count() <= m - 3:
            out.add(s)
    return tuple(sorted(out))


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
    splits, as ``(splits, e is external)``, one per edge e.  After
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
        out.append((tuple(sorted(full ^ s if s & 2 else s for s in new)), external))
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


@lru_cache(maxsize=None)
def _state_index(m: int) -> dict[tuple[int, ...], int]:
    """Position of each split tuple in ``enumerate_cladograms(m)``."""
    return {t.splits: i for i, t in enumerate(enumerate_cladograms(m))}


def _deletions(m: int) -> Iterator[tuple[int, ...]]:
    """For each state of ``enumerate_cladograms(m)`` in turn, the positions of
    ``t.delete_leaf(k)`` in ``enumerate_cladograms(m - 1)`` for k = 1..m."""
    index = _state_index(m - 1)
    for t in enumerate_cladograms(m):
        yield tuple(index[_delete_split_leaf(t.splits, m, k)] for k in t.leaves)


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
