import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaford.cladogram import (
    Cladogram,
    StructureError,
    _cherry_mask,
    _delete_split_leaf,
    _split_key,
    enumerate_cladograms,
    from_newick,
    num_cladograms,
    shape,
    to_newick,
)
from alphaford.chain import ChainState
from alphaford.tree import FiniteMeasureTree
from alphaford.ford import (
    build_comb_tree,
    sample_ford_cladogram,
    sample_ford_tree,
    sample_kingman_cladogram,
)

from conftest import random_cladogram

T2 = Cladogram(2, [(1, 2)])
T3 = T2.insert_leaf((1, 2))


def test_insert_into_two_leaf_gives_unique_three_cladogram():
    assert T3.m == 3
    assert T3.key == enumerate_cladograms(3)[0].key


def test_insert_at_external_edge_of_leaf_one_pairs_one_with_new_leaf():
    e1 = next(e for e in T3.edges if 1 in e)
    t4 = T3.insert_leaf(e1)
    assert t4.cherries() == frozenset({1, 2, 3, 4})
    # {1,4} and {2,3} are the cherry pairs
    v1 = t4.adjacency[1][0]
    assert set(t4.adjacency[v1]) >= {1, 4}
    v2 = t4.adjacency[2][0]
    assert set(t4.adjacency[v2]) >= {2, 3}


def test_repeated_insertion_counts():
    t = T2
    for n in range(3, 12):
        t = t.insert_leaf(t.edges[0])
        assert t.m == n
        assert len(t.edges) == 2 * n - 3
        assert len(t.internal_vertices) == n - 2


def test_delete_any_leaf_of_four_cladogram_gives_three_cladogram():
    for t4 in enumerate_cladograms(4):
        for k in range(1, 5):
            assert t4.delete_leaf(k) == T3


def test_insert_delete_roundtrip_all_edges():
    for t in enumerate_cladograms(5):
        for e in t.edges:
            assert t.insert_leaf(e).delete_leaf(6) == t


def test_delete_relabels_downward():
    comb5 = build_comb_tree(5).topology
    reduced = comb5.delete_leaf(2)
    # old leaf 3 (a middle tooth) becomes leaf 2
    assert reduced.m == 4
    assert sorted(v for v in reduced.adjacency if v > 0) == [1, 2, 3, 4]


def test_delete_from_two_leaf_fails():
    with pytest.raises(StructureError):
        T2.delete_leaf(1)
    with pytest.raises(StructureError):
        T3.delete_leaf(9)


def test_eight_cladogram_with_six_cherries():
    edges = [
        (1, -1), (2, -1), (3, -2), (4, -2), (5, -3), (6, -3),
        (-1, -4), (-2, -4), (-4, -5), (7, -5), (-5, -6), (8, -6), (-6, -3),
    ]
    t = Cladogram(8, edges)
    assert len(t.cherries()) == 6


def test_cherry_counts_small():
    for t in enumerate_cladograms(4):
        assert t.cherries() == frozenset({1, 2, 3, 4})
    cat6 = build_comb_tree(6).topology
    assert len(cat6.cherries()) == 4
    balanced6 = Cladogram(
        6,
        [(1, -1), (2, -1), (3, -2), (4, -2), (5, -3), (6, -3), (-1, -4), (-2, -4), (-3, -4)],
    )
    assert len(balanced6.cherries()) == 6


def test_cherries_even_and_bounded():
    rng = np.random.default_rng(5)
    for m in (4, 5, 6, 7, 8):
        for _ in range(20):
            c = len(random_cladogram(rng, m).cherries())
            assert c % 2 == 0
            assert 4 <= c <= m


def test_canonical_key_distinguishes_labelings():
    t_a = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    t_b = Cladogram(4, [(1, -1), (3, -1), (2, -2), (4, -2), (-1, -2)])
    assert t_a.key != t_b.key


def test_canonical_key_ignores_internal_ids():
    t_a = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    t_b = Cladogram(4, [(1, -7), (2, -7), (3, -5), (4, -5), (-7, -5)])
    assert t_a.key == t_b.key
    assert t_a == t_b
    assert hash(t_a) == hash(t_b)


@pytest.mark.parametrize("m,count", [(3, 1), (4, 3), (5, 15), (6, 105)])
def test_enumeration_counts(m, count):
    states = enumerate_cladograms(m)
    assert len(states) == count == num_cladograms(m)
    assert len({t.key for t in states}) == count
    assert [t.key for t in states] == sorted(t.key for t in states)


def test_enumeration_counts_large():
    for m in (7, 8):
        states = enumerate_cladograms(m)
        assert len(states) == num_cladograms(m)
        assert len({t.key for t in states}) == len(states)


def test_enumeration_guard():
    with pytest.raises(StructureError):
        enumerate_cladograms(9)


def test_shape_is_identity_on_four_leaf_trees():
    for t in enumerate_cladograms(4):
        ft = FiniteMeasureTree(t)
        assert shape(ft, [1, 2, 3, 4]) == t


def test_shape_of_three_samples_is_unique_three_cladogram():
    ft = build_comb_tree(6)
    for u in itertools.combinations(range(1, 7), 3):
        assert shape(ft, list(u)) == T3


def test_shape_comb_extremes_pair_up():
    ft = build_comb_tree(10)
    got = shape(ft, [1, 2, 9, 10])
    v1 = got.adjacency[1][0]
    assert set(got.adjacency[v1]) >= {1, 2}
    v3 = got.adjacency[3][0]
    assert set(got.adjacency[v3]) >= {3, 4}


def test_shape_subsampling_consistency(rng):
    for _ in range(10):
        t = random_cladogram(rng, 12)
        ft = FiniteMeasureTree(t)
        u = [int(x) for x in rng.choice(12, size=6, replace=False) + 1]
        full = shape(ft, u)
        for j in (5, 4, 3, 2):
            reduced = full
            for label in range(6, j, -1):
                reduced = reduced.delete_leaf(label)
            assert reduced == shape(ft, u[:j])


def test_shape_rejects_duplicates():
    ft = build_comb_tree(6)
    with pytest.raises(StructureError):
        shape(ft, [1, 1, 2])


def test_invalid_structures_rejected():
    with pytest.raises(StructureError):
        Cladogram(4, [(1, 2), (3, 4), (1, 3)])  # wrong counts
    with pytest.raises(StructureError):
        Cladogram(3, [(1, -1), (2, -1), (3, -2)])  # disconnected / bad degrees
    with pytest.raises(StructureError):
        T3.insert_leaf((1, 2))  # not an edge of T3
    # a triangle of internal vertices beside a star: ids, counts and degrees pass
    triangle = [(-1, -2), (-2, -3), (-1, -3), (-1, 1), (-2, 2), (-3, 3)]
    with pytest.raises(StructureError, match="not connected"):
        Cladogram(6, triangle + [(-4, 4), (-4, 5), (-4, 6)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 9))
def test_insert_delete_roundtrip_random(seed, m):
    rng = np.random.default_rng(seed)
    t = random_cladogram(rng, m)
    e = t.edges[int(rng.integers(len(t.edges)))]
    label = int(rng.integers(1, m + 2))
    assert t.insert_leaf(e, label).delete_leaf(label) == t


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 10))
def test_newick_roundtrip_random(seed, m):
    t = random_cladogram(np.random.default_rng(seed), m)
    assert from_newick(to_newick(t)) == t


def test_newick_roundtrip_all_m5():
    for t in enumerate_cladograms(5):
        assert from_newick(to_newick(t)) == t


def test_newick_two_leaf_in_either_order():
    assert from_newick("(2,1);") == T2


def test_newick_two_leaf():
    assert to_newick(T2) == "(1,2);"
    assert from_newick("(1,2);") == T2


# -- split bitmasks against the tree operations -------------------------------------


def dfs_key(t: Cladogram) -> tuple:
    """Reference key: one DFS per internal edge, side without label 1."""

    def side(u: int, avoid: int) -> list[int]:
        labels, seen, stack = [], {u, avoid}, [u]
        while stack:
            x = stack.pop()
            if x > 0:
                labels.append(x)
            for w in t.adjacency[x]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return labels

    splits = []
    for u, v in t.edges:
        if u < 0 and v < 0:
            s = side(u, v)
            splits.append(tuple(sorted(side(v, u) if 1 in s else s)))
    return (t.m, tuple(sorted(splits)))


@pytest.mark.parametrize("alpha", ["0", "1/2", "1"])
def test_key_matches_dfs_reference_on_large_trees(alpha):
    rng = np.random.default_rng(11)
    for n in (50, 137, 300):
        t = sample_ford_cladogram(alpha, n, rng)
        assert t.key == dfs_key(t)
        assert len(t.splits) == n - 3


@pytest.mark.parametrize("m", range(3, 9))
def test_split_deletion_matches_delete_leaf(m):
    for t in enumerate_cladograms(m):
        for k in t.leaves:
            assert _split_key(m - 1, _delete_split_leaf(t.splits, m, k)) == t.delete_leaf(k).key


@pytest.mark.parametrize("m", range(2, 9))
def test_cherry_mask_matches_cherries(m):
    for t in enumerate_cladograms(m):
        mask = _cherry_mask(t.splits, m)
        assert {k for k in t.leaves if mask >> k & 1} == t.cherries()
        assert mask >> (m + 1) == 0 and mask & 1 == 0


def recursive_newick(t: Cladogram) -> str:
    """Reference serializer: the recursive form of :func:`to_newick`."""
    if t.m == 2:
        return "(1,2);"
    root = t.adjacency[1][0]

    def sub(v: int, parent: int) -> str:
        if v > 0:
            return str(v)
        return "(" + ",".join(sub(w, v) for w in t.adjacency[v] if w != parent) + ")"

    return "(" + ",".join(sub(w, root) for w in t.adjacency[root]) + ");"


@pytest.mark.parametrize("alpha", ["0", "1/2", "1"])
def test_newick_matches_recursive_reference(alpha):
    rng = np.random.default_rng(5)
    for n in (3, 4, 7, 60, 200):
        t = sample_ford_cladogram(alpha, n, rng)
        assert to_newick(t) == recursive_newick(t)


@pytest.mark.parametrize("alpha", [None, "1"])
def test_newick_roundtrip_deep_trees(alpha):
    """1500-leaf comb and alpha = 1 Ford tree: far deeper than the recursion limit."""
    if alpha is None:
        t = build_comb_tree(1500).topology
    else:
        t = sample_ford_cladogram(alpha, 1500, np.random.default_rng(2))
    assert from_newick(to_newick(t)) == t
    assert repr(t).startswith("Cladogram(m=1500, '(")


@pytest.mark.parametrize("text", ["", "(1,2", "(1,2,(3,4)", "(1,,3);", "(1,2,-3);", "(0,2,3);"])
def test_newick_malformed_is_structure_error(text):
    with pytest.raises(StructureError):
        from_newick(text)


# -- vertex numbering -------------------------------------------------------------


def _assert_canonical(t: Cladogram):
    """The edges use exactly the internal ids -1..-(m-2)."""
    internal = sorted({x for e in t.edges for x in e if x < 0}, reverse=True)
    assert tuple(internal) == t.internal_vertices == tuple(range(-1, 1 - t.m, -1))


def test_every_builder_numbers_internal_vertices_densely():
    rng = np.random.default_rng(13)
    for m in range(2, 7):
        for t in enumerate_cladograms(m):
            _assert_canonical(t)
            for k in t.leaves if m > 2 else ():
                _assert_canonical(t.delete_leaf(k))
            for e in t.edges:
                _assert_canonical(t.insert_leaf(e, new_label=1))
    for m in (2, 3, 9, 40):
        _assert_canonical(sample_ford_cladogram("1/3", m, rng))
        _assert_canonical(sample_ford_tree("1/2", m, rng).topology)
        _assert_canonical(sample_kingman_cladogram(m, rng))
        _assert_canonical(build_comb_tree(m).topology)
        _assert_canonical(from_newick(to_newick(random_cladogram(rng, m))))
    ft = sample_ford_tree("0", 30, rng)
    _assert_canonical(shape(ft, [5, 9, 1, 30, 17, 2]))
    state = ChainState(ft, "1/4", rng)
    state.run_until(0.2)
    _assert_canonical(state.as_tree().topology)


def _index_arrays(t: Cladogram):
    idx = FiniteMeasureTree(t).index
    arrays = (idx.parent, idx.depth, idx.order, idx.first, idx.last, idx.leafcnt, idx.children)
    return [a.tolist() for a in arrays + (idx.sparse,)]


def test_two_index_builds_of_one_tree_are_byte_identical():
    t = sample_ford_tree("1/2", 2000, np.random.default_rng(17)).topology
    a, b = FiniteMeasureTree(t).index, FiniteMeasureTree(t).index
    assert a.sparse.tobytes() == b.sparse.tobytes()


def test_validation_walk_serves_the_index_and_splits_without_adjacency(monkeypatch):
    refuse = property(lambda self: pytest.fail("adjacency built"))
    monkeypatch.setattr(Cladogram, "adjacency", refuse)
    ft = sample_ford_tree("1/3", 2000, np.random.default_rng(5))
    assert ft.index.order.size == 2 * 2000 - 2
    assert len(ft.topology.splits) == 2000 - 3


def test_gapped_internal_ids_are_renumbered_in_descending_order():
    hand = Cladogram(4, [(1, -7), (2, -7), (3, -5), (4, -5), (-7, -5)])
    twin = Cladogram(4, [(1, -2), (2, -2), (3, -1), (4, -1), (-2, -1)])
    # deleting tooth 3 of the 6-leaf comb leaves spine ids -1, -3, -4
    deleted = build_comb_tree(6).topology.delete_leaf(3)
    comb5 = build_comb_tree(5).topology
    for t, canonical in ((hand, twin), (deleted, comb5)):
        assert t.edges == canonical.edges
        assert t.adjacency == canonical.adjacency
        assert t == canonical
        assert _index_arrays(t) == _index_arrays(canonical)


def test_scrambled_ids_give_the_index_and_chain_state_of_the_canonical_twin():
    rng = np.random.default_rng(21)
    for t in (build_comb_tree(40).topology, sample_ford_tree("1/2", 60, rng).topology):
        ids = (-rng.choice(10**9, size=t.m - 2, replace=False) - 1).tolist()
        scramble = dict(zip(t.internal_vertices, ids))
        edges = [(scramble.get(u, u), scramble.get(v, v)) for u, v in t.edges]
        # the twin numbers the scrambled ids -1, -2, ... from the largest down
        rank = {v: -1 - i for i, v in enumerate(sorted(ids, reverse=True))}
        twin = Cladogram(t.m, [(rank.get(u, u), rank.get(v, v)) for u, v in edges])
        renumbered = Cladogram(t.m, edges)
        _assert_canonical(twin)
        assert renumbered.edges == twin.edges
        assert renumbered == twin == t
        assert _index_arrays(renumbered) == _index_arrays(twin)
        a = ChainState(FiniteMeasureTree(renumbered), "0", np.random.default_rng(0))
        b = ChainState(FiniteMeasureTree(twin), "0", np.random.default_rng(0))
        assert (a.ends, a.inc) == (b.ends, b.inc)
