"""Shared brute-force oracles.

Everything here recomputes tree quantities from raw adjacency by path
enumeration, independently of the package's rooted-index machinery, so the
tests compare two genuinely different code paths.
"""

import numpy as np
import pytest

from alphaford.cladogram import Cladogram


def bf_path(t: Cladogram, x: int, y: int) -> list[int]:
    """Vertices on the path x..y inclusive, by BFS predecessor walk."""
    prev = {x: None}
    queue = [x]
    while queue:
        v = queue.pop(0)
        for w in t.adjacency[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    return path


def bf_median(t: Cladogram, x: int, y: int, z: int) -> int:
    """Unique common vertex of the three pairwise paths."""
    common = set(bf_path(t, x, y)) & set(bf_path(t, y, z)) & set(bf_path(t, x, z))
    assert len(common) == 1
    return common.pop()


def bf_quartet_partner(t: Cladogram, a: int, b: int, c: int, d: int) -> int:
    """Which of b, c, d pairs with a (codes 1, 2, 3), via path medians."""
    if bf_median(t, a, b, c) == bf_median(t, a, b, d):
        return 1
    if bf_median(t, a, c, b) == bf_median(t, a, c, d):
        return 2
    return 3


def bf_components(t: Cladogram, v: int) -> list[set[int]]:
    """Vertex sets of the components of (t minus v), one per neighbour of v,
    by BFS over the adjacency with v removed."""
    comps = []
    for start in t.adjacency[v]:
        seen = {v, start}
        queue = [start]
        while queue:
            for w in t.adjacency[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        seen.discard(v)
        comps.append(seen)
    return comps


def leaf_count(vertices) -> int:
    return sum(w > 0 for w in vertices)


def chain_move(t: Cladogram, k: int, edge) -> Cladogram:
    """The state reached by removing leaf k of t and reinserting it at
    ``edge`` of the reduced (m-1)-cladogram, through the tree edits."""
    return t.delete_leaf(k).insert_leaf(edge, new_label=k)


def random_cladogram(rng: np.random.Generator, m: int) -> Cladogram:
    """Uniform-edge growth; arbitrary but valid m-cladogram."""
    t = Cladogram(2, [(1, 2)])
    for _ in range(m - 2):
        t = t.insert_leaf(t.edges[int(rng.integers(len(t.edges)))])
    return t


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
