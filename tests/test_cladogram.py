import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaford.cladogram import (
    Cladogram,
    StructureError,
    _delete_split_leaf,
    _enumerate,
    _split_key,
    _triple_code,
    _triple_tables,
    enumerate_cladograms,
    from_newick,
    num_cladograms,
    shape,
    to_newick,
)
from alphaford._rng import parse_alpha
from alphaford.chain import ChainState
from alphaford.tree import FiniteMeasureTree, _Index
from alphaford.ford import (
    _grow_edges,
    build_comb_tree,
    sample_ford_cladogram,
    sample_ford_tree,
    sample_kingman_cladogram,
)

from conftest import bf_quartet_partner, random_cladogram

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


def test_equality_agrees_with_keys_on_all_six_cladograms():
    states = enumerate_cladograms(6)
    rng = np.random.default_rng(5)
    # the same trees with their internal ids permuted
    twins = []
    for t in states:
        perm = dict(zip(range(-1, -5, -1), (-1 - rng.permutation(4)).tolist()))
        twins.append(Cladogram(6, [(perm.get(u, u), perm.get(v, v)) for u, v in t.edges]))
    for a, b in itertools.product(states, twins):
        assert (a == b) == (a.key == b.key)
        if a == b:
            assert hash(a) == hash(b)
    assert len(set(states)) == len(states) == len(set(twins))


def test_big_trees_hash_and_compare_in_linear_memory():
    rng = np.random.default_rng(17)
    edges = _grow_edges(parse_alpha(1), 20_000, rng)
    a, b = Cladogram(20_000, edges), Cladogram(20_000, edges[::-1].copy())
    tracemalloc.start()
    try:
        assert a == b and hash(a) == hash(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the split masks of one such comb-like tree take tens of MB
    assert peak < 8e6


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


@pytest.mark.parametrize("m", [5.0, 5.5, True, "5"])
def test_enumeration_leaf_count_must_be_an_integer(m):
    cached = _enumerate.cache_info().currsize
    for call in (enumerate_cladograms, num_cladograms):
        with pytest.raises(TypeError, match="leaf count must be an integer"):
            call(m)
    assert _enumerate.cache_info().currsize == cached


def test_enumeration_reads_numpy_leaf_counts_as_ints():
    # one cached table per m: a numpy scalar must not key a second one
    assert enumerate_cladograms(np.int64(6)) is enumerate_cladograms(6)
    assert type(enumerate_cladograms(np.int32(6)).m) is int
    assert num_cladograms(np.int64(6)) == 105 and type(num_cladograms(np.int64(6))) is int


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


def _edge_input(form: str, edges):
    """The same edges as an int64 array or as a list of Python-int pairs."""
    if form == "array":
        return np.array(edges, np.int64).reshape(-1, 2)
    return [tuple(e) for e in edges]


_IDS_3 = "vertex ids must be leaves 1..3 and internal -1..-1"
# a triangle of internal vertices beside a star: ids, counts and degrees pass
_TRIANGLE = [(-1, -2), (-2, -3), (-1, -3), (-1, 1), (-2, 2), (-3, 3), (-4, 4), (-4, 5), (-4, 6)]
INVALID = [
    (1, [], "need at least 2 leaves, got 1"),
    (4, [(1, 2), (3, 4), (1, 3)], "4-cladogram needs 5 edges, got 3"),
    (3, [(1, -1), (2, -1), (3, -2)], _IDS_3),  # -2 is out of range once counted
    (3, [(0, -1), (2, -1), (3, -1)], _IDS_3),  # id 0
    (3, [(4, -1), (2, -1), (3, -1)], _IDS_3),  # id above m
    (4, [(1, 1), (2, -1), (3, -1), (4, -2), (-1, -2)], "vertex 1 has degree 2"),  # leaf self-loop
    (4, [(1, -1), (2, -1), (3, -1), (4, -1), (-1, -2)], "vertex -1 has degree 5"),
    # an internal self-loop and a doubled edge each leave every degree right
    (4, [(-1, -1), (-1, 1), (-2, 2), (-2, 3), (-2, 4)], "tree is not connected"),
    (5, [(-1, -2), (-1, -2), (-1, 1), (-2, 2), (-3, 3), (-3, 4), (-3, 5)], "tree is not connected"),
    (6, _TRIANGLE, "tree is not connected"),
    # the same with leaf 1 on the star: the walk from leaf 1 runs out early
    (6, [(-1, 1), (-1, 2), (-1, 3), (-2, -3), (-3, -4), (-2, -4), (-2, 4), (-3, 5), (-4, 6)],
     "tree is not connected"),
]


@pytest.mark.parametrize("form", ["tuples", "array"])
def test_invalid_structures_rejected(form):
    # both input forms run every check, and fail with the same message
    for m, edges, message in INVALID:
        with pytest.raises(StructureError) as exc:
            Cladogram(m, _edge_input(form, edges))
        assert str(exc.value) == message, (m, edges)
    t3 = Cladogram(3, _edge_input(form, [(1, -1), (2, -1), (3, -1)]))
    with pytest.raises(StructureError, match="not an edge"):
        t3.insert_leaf((1, 2))


@pytest.mark.parametrize("form", ["tuples", "array"])
@pytest.mark.parametrize("m", [4.9, 4.0, "4", True, np.True_, None])
def test_leaf_count_must_be_an_integer(form, m):
    edges = _edge_input(form, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    with pytest.raises(TypeError, match="leaf count must be an integer"):
        Cladogram(m, edges)
    assert Cladogram(np.int64(4), edges) == Cladogram(4, edges)
    assert type(Cladogram(np.int32(4), edges).m) is int


_STAR_3 = [(1, -1), (2, -1), (3, -1)]


@pytest.mark.parametrize(
    "edges, kind",
    [
        ([(True, -1), (2, -1), (3, -1)], "bool"),
        ([(1, -1), (2, np.True_), (3, -1)], "bool"),
        ([(1.0, -1), (2, -1), (3, -1)], "float"),
        ([(1, -1), (2, np.float64(-1)), (3, -1)], "float64"),
        ([("1", -1), (2, -1), (3, -1)], "str"),
        (np.array(_STAR_3, float), "float64"),
        (np.array(_STAR_3, bool), "bool"),
        (np.array(_STAR_3, object), "object"),
    ],
)
def test_vertex_ids_must_be_integers(edges, kind):
    # numpy 1.x names its scalar bool "bool_"
    with pytest.raises(TypeError, match=f"vertex ids must be integers, got {kind}"):
        Cladogram(3, edges)


def test_numpy_integer_vertex_ids_pass():
    star = Cladogram(3, _STAR_3)
    assert Cladogram(3, [(np.int64(u), np.int8(v)) for u, v in _STAR_3]) == star
    for dtype in (np.int8, np.int32):
        assert Cladogram(3, np.array(_STAR_3, dtype)) == star
    # unsigned ids hold no internal vertex: a structure error, not a type error
    with pytest.raises(StructureError):
        Cladogram(3, np.array([(1, 4), (2, 4), (3, 4)], np.uint64))


def test_numpy_integer_vertex_ids_are_stored_as_python_ints():
    # the pair path stores Python ints, as the array path does, so numpy
    # scalars do not leak into edges, vertices or the edits built on them
    t = Cladogram(3, [(np.int64(1), np.int32(-1)), (np.int8(2), -1), (3, np.int16(-1))])
    grown = t.insert_leaf((np.int64(-1), np.int32(2)), new_label=np.int64(2))
    for c in (t, grown, grown.delete_leaf(np.int8(3))):
        ids = [x for e in c.edges for x in e] + list(c.vertices)
        assert all(type(x) is int for x in ids), ids
    assert t.edges == ((-1, 1), (-1, 2), (-1, 3))


@pytest.mark.parametrize("label", [True, np.True_, 2.0, 2.5, "2", None])
def test_edit_labels_must_be_integers(label):
    comb = build_comb_tree(6).topology
    with pytest.raises(TypeError, match="leaf label must be an integer"):
        comb.delete_leaf(label)
    edge = comb.edges[0]
    if label is not None:  # None asks for the default label m + 1
        with pytest.raises(TypeError, match="leaf label must be an integer"):
            comb.insert_leaf(edge, new_label=label)
    assert comb.delete_leaf(np.int64(2)) == comb.delete_leaf(2)
    assert comb.insert_leaf(edge, new_label=np.int32(2)) == comb.insert_leaf(edge, new_label=2)


def test_edge_array_must_have_two_columns():
    with pytest.raises(StructureError, match="shape"):
        Cladogram(3, np.array([1, -1, 2, -1, 3, -1]))


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
    # nontrivial masks are the splits of the reduced tree; the others are
    # trivial: one label, or every label but 1
    for t in enumerate_cladograms(m):
        for k in t.leaves:
            got = _delete_split_leaf(np.array(t.splits, dtype=np.int64), m, k).tolist()
            kept = {s for s in got if 2 <= s.bit_count() <= m - 3}
            assert _split_key(m - 1, kept) == t.delete_leaf(k).key
            assert all(s.bit_count() in (1, m - 2) for s in got if s not in kept)


@pytest.mark.parametrize("m", range(2, 9))
def test_triple_code_is_injective(m):
    states = enumerate_cladograms(m)
    masks = states.masks
    assert masks.shape == (len(states), max(m - 3, 0)) and masks.dtype == np.int64
    assert masks.tolist() == [list(t.splits) for t in states]
    assert len(np.unique(_triple_code(masks, m))) == len(states)
    assert states.locate(_triple_code(masks, m)).tolist() == list(range(len(states)))
    # repeats, trivial masks and the order of a row do not change its code
    trivial = np.broadcast_to([2 << j for j in range(1, m)] + [(1 << (m + 1)) - 4], (len(masks), m))
    padded = np.concatenate([masks[:, ::-1], masks, trivial], axis=1)
    assert (_triple_code(padded, m) == _triple_code(masks, m)).all()


def triple_code_oracle(masks, m):
    """The state code digit by digit, one loop turn per label triple, with
    its bitset tables built afresh."""
    triples = list(itertools.combinations(range(2, m + 1), 3))
    values = np.arange(1 << (m + 1))
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


@pytest.mark.parametrize("m", range(2, 9))
def test_triple_code_matches_the_per_triple_loop(m):
    # every state, padded rows, and random masks in 2-D and in the 3-D
    # shape of the move tables (T = 4, 10, 20, 35 digits fill 1, 2, 3, 5
    # bytes of the weight tables at m = 5..8)
    masks = enumerate_cladograms(m).masks
    code = _triple_code(masks, m)
    assert code.dtype == np.int64 and code.tolist() == triple_code_oracle(masks, m).tolist()
    trivial = np.broadcast_to([2 << j for j in range(1, m)] + [(1 << (m + 1)) - 4], (len(masks), m))
    padded = np.concatenate([masks[:, ::-1], masks, trivial], axis=1)
    assert _triple_code(padded, m).tolist() == triple_code_oracle(padded, m).tolist()
    rng = np.random.default_rng(m)
    for shape_ in [(500, m), (7, 40, 2 * m - 3)]:
        random = rng.integers(0, 1 << (m + 1), size=shape_)
        assert _triple_code(random, m).tolist() == triple_code_oracle(random, m).tolist()


@pytest.mark.parametrize("m", range(2, 9))
def test_triple_code_tables_are_cached_and_read_only(m):
    tables = _triple_tables(m)
    assert _triple_tables(m) is tables
    arrays = [x for x in tables if isinstance(x, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        assert a.dtype == np.int64 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    _, _, weights, table, base = tables
    n = len(list(itertools.combinations(range(2, m + 1), 3)))
    assert weights.tolist() == [3**i for i in range(n - 1, -1, -1)]
    assert table.shape == (-(-n // 8), 256) and base == 3 * sum(weights.tolist())


@pytest.mark.parametrize("m", [4, 5, 6])
def test_triple_code_digits_are_quartet_partners(m):
    # digit by digit against path medians on the tree, in bijective base 3
    masks = enumerate_cladograms(m).masks
    for t, code in zip(enumerate_cladograms(m), _triple_code(masks, m).tolist()):
        expected = 0
        for j, k, l in itertools.combinations(range(2, m + 1), 3):
            expected = 3 * expected + bf_quartet_partner(t, 1, j, k, l)
        assert code == expected


@pytest.mark.parametrize("m", range(4, 8))
def test_locate_rejects_codes_of_no_state(m):
    states = enumerate_cladograms(m)
    with pytest.raises(StructureError):
        states.locate(np.array([0]))
    bigger = np.sort(_triple_code(enumerate_cladograms(m + 1).masks, m + 1))
    with pytest.raises(StructureError):
        states.locate(bigger[:1])
    with pytest.raises(StructureError):
        states.locate(np.concatenate([np.sort(_triple_code(states.masks, m)), bigger[-1:]]))


@pytest.mark.parametrize("m", range(2, 9))
def test_cherry_mask_matches_cherries(m):
    """The table's cherry flags, read from split sizes, against the tree."""
    flags = enumerate_cladograms(m).cherries
    assert flags.shape == (num_cladograms(m), m) and flags.dtype == bool
    for t, row in zip(enumerate_cladograms(m), flags.tolist()):
        assert {k for k in t.leaves if row[k - 1]} == t.cherries()


def grown_cladograms(m: int) -> list[Cladogram]:
    """Reference enumeration: leaf n + 1 inserted at every edge of every
    n-cladogram by tree edits, sorted by key."""
    trees = [Cladogram(2, [(1, 2)])]
    for _ in range(2, m):
        trees = sorted((t.insert_leaf(e) for t in trees for e in t.edges), key=lambda t: t.key)
    return trees


@pytest.mark.parametrize("m", range(2, 9))
def test_enumeration_matches_insert_leaf_growth(m):
    """Trees read off the state table have the edges, internal ids included,
    and the keys of the trees grown by ``insert_leaf``."""
    got = enumerate_cladograms(m)
    ref = grown_cladograms(m)
    assert [t.edges for t in got] == [t.edges for t in ref]
    assert [t.key for t in got] == [t.key for t in ref]


@pytest.mark.parametrize("m", range(2, 9))
def test_state_keys_match_split_key(m):
    states = enumerate_cladograms(m)
    assert states.keys == tuple(_split_key(m, row) for row in states.masks.tolist())


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


# "(1 2,3,4);": whitespace inside a label separates nothing, and is no leaf 12;
# a label right after ")" names an internal node, which is not read, and an
# empty item is no leaf: "((1,2)5,3,4);", "((1,2),3,4)5;" and "(1,,2,3);" would
# each be a valid tree if it were skipped.  A leaf label is ASCII digits with
# no leading zero, as to_newick writes it: "(١,2,3);" (Arabic-Indic one),
# "(1,2,３);" (fullwidth three), "(01,2,3);" and "((1,2),003,4);" would each
# read as a tree if labels went through str.isdecimal and int
@pytest.mark.parametrize(
    "text",
    [
        "", "(1,2", "(1,2,(3,4)", "(1,,3);", "(1,2,-3);", "(0,2,3);", "(1 2,3,4);",
        "1;", "(1,2,3));", "(1,2,3)(4);", "((1,2),3,4)x;", "(1,(2,3)4,5);", "(,1,2);",
        "(1,2,3),", "()", "(1,2,());", "(1,2,3);;", "(a,2,3);", "(1:0.1,2,3);",
        "((1),2,3);", "(1,2,2);", "(1,2,4);", "((1,2),(3,4));",
        "((1,2)5,3,4);", "((1,2),3,4)5;", "(1,,2,3);",
        "(\u0661,2,3);", "(1,2,\uff13);", "(01,2,3);", "((1,2),003,4);",
    ],
)
def test_newick_malformed_is_structure_error(text):
    with pytest.raises(StructureError):
        from_newick(text)


@pytest.mark.parametrize(
    "text, edges",
    [
        (
            "((1,2),(3,4),5);",
            ((-3, -1), (-3, 3), (-3, 4), (-2, -1), (-2, 1), (-2, 2), (-1, 5)),
        ),
        (
            "(1,(2,3),(4,(5,6)));",
            ((-4, -3), (-4, 5), (-4, 6), (-3, -1), (-3, 4), (-2, -1), (-2, 2), (-2, 3), (-1, 1)),
        ),
    ],
)
def test_newick_numbers_internal_vertices_as_parentheses_open(text, edges):
    assert from_newick(text).edges == edges


def test_newick_ignores_whitespace_around_punctuation():
    assert from_newick("(1, 2, 3);") == from_newick("(1,2,3);")
    wrapped = " (\n  (1, 2) ,\n\t(3,\n 4) ,\r\n 5\n) ;\n"
    assert to_newick(from_newick(wrapped)) == to_newick(from_newick("((1,2),(3,4),5);"))
    assert from_newick(" ( 1 , 2 ) ; ").m == 2


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
    arrays = (idx.parent, idx.depth, idx.order, idx.first, idx.leafcnt, idx.children)
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


def _assert_same_index(a: _Index, b: _Index):
    assert vars(a).keys() == vars(b).keys()
    for name, x in vars(a).items():
        y = vars(b)[name]
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        else:
            assert x == y, name


@pytest.mark.parametrize("alpha", ["0", "1/2", "1"])
def test_array_and_tuple_inputs_agree(alpha):
    rng = np.random.default_rng(31)
    for m in [*range(2, 41), 300, 2000]:
        grown = _grow_edges(parse_alpha(alpha), m, rng)
        shuffled = grown[rng.permutation(len(grown))]
        flip = rng.random(len(grown)) < 0.5
        shuffled[flip] = shuffled[flip, ::-1]
        scrambled = shuffled.copy()
        ids = -rng.choice(10**9, size=m - 2, replace=False) - 1
        inside = scrambled < 0
        scrambled[inside] = ids[-scrambled[inside] - 1]
        for edges in (shuffled, scrambled):
            a = Cladogram(m, edges)
            t = Cladogram(m, [tuple(e) for e in edges.tolist()])
            assert a.edges == t.edges
            assert all(type(x) is int for e in a.edges for x in e)
            assert a._preorder.tolist() == t._preorder.tolist()
            assert a._parent.tolist() == t._parent.tolist()
            # numpy ints would wrap in 2 << p from 62 leaves on
            assert a.splits == t.splits and all(type(s) is int for s in a.splits)
            assert a.key == t.key
            _assert_same_index(FiniteMeasureTree(a).index, FiniteMeasureTree(t).index)
        assert Cladogram(m, shuffled) == Cladogram(m, grown)


@pytest.mark.parametrize("form", ["tuples", "array"])
def test_index_shares_the_read_only_walk(form):
    # the index holds the cladogram's own walk arrays; a write through it
    # would change the splits, edges and code read off them afterwards
    grown = _grow_edges(parse_alpha("1/3"), 200, np.random.default_rng(8))
    edges = grown if form == "array" else [tuple(e) for e in grown.tolist()]
    t, twin = Cladogram(200, edges), Cladogram(200, edges)
    idx = FiniteMeasureTree(t).index
    assert idx.parent is t._parent and idx.order is t._preorder
    for a in (idx.parent, idx.order):
        with pytest.raises(ValueError, match="read-only"):
            a[1:3] = a[2:0:-1]
    assert t.splits == twin.splits and t.edges == twin.edges and t == twin
    assert t._preorder.tolist() == twin._preorder.tolist()
    assert t._parent.tolist() == twin._parent.tolist()


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 2)],
        [(2, 1)],
        [(1, -1), (2, -1), (3, -1)],
        [(-1, 3), (1, -1), (-1, 2)],
        [(3, -9), (-9, 2), (1, -9)],
    ],
)
def test_two_and_three_leaf_arrays_give_the_pair_edges(pairs):
    m = max(max(e) for e in pairs)
    a, t = Cladogram(m, np.array(pairs)), Cladogram(m, pairs)
    assert a.edges == t.edges
    assert all(type(x) is int for e in a.edges for x in e)
    assert a == t and a.key == t.key
