import contextlib
import functools
import itertools
import math
import signal
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from alphaford import tree as tree_module
from alphaford.chain import exact_shape_vector
from alphaford.cladogram import Cladogram, StructureError, enumerate_cladograms
from alphaford.ford import build_comb_tree, sample_ford_tree
from alphaford.moments import exact_tree_moment
from alphaford.tree import FiniteMeasureTree

from conftest import (
    bf_components,
    bf_median,
    bf_path,
    bf_quartet_partner,
    leaf_count,
    random_cladogram,
)

BALANCED4 = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])


def bf_nu(t: Cladogram) -> dict[int, Fraction]:
    """Branch point distribution by full enumeration of ordered leaf triples."""
    n = t.m
    counts = Counter(
        bf_median(t, x, y, z)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        for z in range(1, n + 1)
    )
    return {v: Fraction(c, n**3) for v, c in counts.items()}


def bf_r_mu(t: Cladogram, x: int, y: int) -> Fraction:
    nu = bf_nu(t)
    total = sum((nu.get(v, Fraction(0)) for v in bf_path(t, x, y)), Fraction(0))
    return total - Fraction(1, 2) * nu.get(x, Fraction(0)) - Fraction(1, 2) * nu.get(y, Fraction(0))


def test_branch_point_two_point_condition(rng):
    ft = FiniteMeasureTree(random_cladogram(rng, 12))
    vs = ft.topology.vertices
    for _ in range(200):
        x, y = rng.choice(len(vs), size=2)
        assert ft.branch_point(vs[x], vs[y], vs[y]) == vs[y]


def test_branch_point_three_point_condition(rng):
    ft = FiniteMeasureTree(random_cladogram(rng, 12))
    vs = ft.topology.vertices
    for _ in range(200):
        x, y, z = (vs[i] for i in rng.choice(len(vs), size=3))
        c = ft.branch_point(x, y, z)
        assert ft.branch_point(x, y, c) == c


def test_branch_point_four_point_condition(rng):
    ft = FiniteMeasureTree(random_cladogram(rng, 10))
    vs = ft.topology.vertices
    for _ in range(200):
        x1, x2, x3, x4 = (vs[i] for i in rng.choice(len(vs), size=4))
        c = ft.branch_point(x1, x2, x3)
        assert c in {
            ft.branch_point(x1, x2, x4),
            ft.branch_point(x1, x3, x4),
            ft.branch_point(x2, x3, x4),
        }


def test_branch_point_symmetry_and_oracle(rng):
    t = random_cladogram(rng, 9)
    ft = FiniteMeasureTree(t)
    for x, y, z in itertools.combinations(range(1, 10), 3):
        expect = bf_median(t, x, y, z)
        for perm in itertools.permutations((x, y, z)):
            assert ft.branch_point(*perm) == expect


def test_branch_point_of_cherry_triplet():
    ft = FiniteMeasureTree(BALANCED4)
    v = ft.branch_point(1, 2, 3)
    assert v == ft.topology.adjacency[1][0]


def test_component_masses_four_leaf():
    ft = FiniteMeasureTree(BALANCED4)
    assert ft.component_masses((1, 2, 3)) == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_component_masses_comb_positions():
    n = 12
    ft = build_comb_tree(n)
    for j in range(3, n - 1):
        # leaf j is the tooth at spine position j - 1
        masses = ft.component_masses((1, j, n))
        assert masses == (Fraction(j - 1, n), Fraction(1, n), Fraction(n - j, n))


def test_component_masses_permutation_and_total(rng):
    t = random_cladogram(rng, 15)
    ft = FiniteMeasureTree(t)
    for _ in range(50):
        u = tuple(int(x) for x in rng.choice(15, size=3, replace=False) + 1)
        masses = ft.component_masses(u)
        assert sum(masses) == 1
        assert all(x >= Fraction(1, 15) for x in masses)
        perm = tuple(int(i) for i in rng.permutation(3))
        permuted = ft.component_masses(tuple(u[i] for i in perm))
        assert permuted == tuple(masses[i] for i in perm)


def test_component_masses_rejects_duplicates():
    ft = build_comb_tree(6)
    # an internal vertex and ids outside 1..N are not leaves either
    for u in [(1, 1, 2), (-2, 1, 6), (1, 2, 0), (1, 2, 7)]:
        with pytest.raises(StructureError):
            ft.component_masses(u)


def test_nu_two_leaf_brute_force():
    ft = FiniteMeasureTree(Cladogram(2, [(1, 2)]))
    nu = ft.branch_point_distribution()
    assert nu == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    assert nu == bf_nu(ft.topology)


def test_nu_balanced_four():
    ft = FiniteMeasureTree(BALANCED4)
    nu = ft.branch_point_distribution()
    v = ft.topology.adjacency[1][0]
    assert nu[v] == Fraction(3, 16)
    assert nu == bf_nu(BALANCED4)


@pytest.mark.parametrize("m", [5, 8, 11])
def test_nu_matches_brute_force(m, rng):
    for _ in range(3):
        t = random_cladogram(rng, m)
        ft = FiniteMeasureTree(t)
        assert ft.branch_point_distribution() == bf_nu(t)


def test_nu_sums_to_one_larger_trees(rng):
    for m in (20, 35, 50):
        ft = FiniteMeasureTree(random_cladogram(rng, m))
        assert sum(ft.branch_point_distribution().values()) == 1


def test_nu_brute_force_at_n30(rng):
    # combination-based oracle: distinct triples contribute 6 ordered ones to
    # their median, each leaf picks up the 3n - 2 tuples with a repeat on it
    n = 30
    t = random_cladogram(rng, n)
    counts = Counter()
    for x, y, z in itertools.combinations(range(1, n + 1), 3):
        counts[bf_median(t, x, y, z)] += 6
    for leaf in range(1, n + 1):
        counts[leaf] += 3 * n - 2
    expected = {v: Fraction(c, n**3) for v, c in counts.items()}
    got = FiniteMeasureTree(t).branch_point_distribution()
    assert {v: p for v, p in got.items() if p} == expected


def nu_oracle(ft: FiniteMeasureTree) -> list[tuple[int, Fraction]]:
    """(vertex, nu) in key order, from the component counts in Python ints."""
    n = ft.n
    cube = n**3
    out = [(leaf, Fraction(3 * n - 2, cube)) for leaf in range(1, n + 1)]
    counts = ft.component_counts().tolist()
    out += [(-i, Fraction(6 * a * b * c, cube)) for i, (a, b, c) in enumerate(counts, 1)]
    return out


@pytest.mark.parametrize("alpha", [None, "0", "1/2", "1"])
def test_nu_matches_component_count_oracle_at_2000_leaves(alpha):
    n = 2000
    if alpha is None:
        ft = build_comb_tree(n)
    else:
        ft = sample_ford_tree(alpha, n, np.random.default_rng(41))
    expected = nu_oracle(ft)
    assert [v for v, _ in expected] == [*range(1, n + 1), *range(-1, 1 - n, -1)]
    assert list(ft.branch_point_distribution().items()) == expected


def test_nu_products_in_python_ints(monkeypatch, rng):
    # the path that keeps abc exact where int64 could wrap (N >= 3 * 2^21),
    # forced on a small tree
    ft = FiniteMeasureTree(random_cladogram(rng, 60))
    monkeypatch.setattr(tree_module, "_INT64_PRODUCT_LEAVES", 0)
    assert list(ft.branch_point_distribution().items()) == nu_oracle(ft)


def test_nu_is_read_only():
    ft = build_comb_tree(6)
    nu = ft.branch_point_distribution()
    assert ft.r_mu(1, 2) == Fraction(5, 27)
    for v, value in ((1, Fraction(0)), (-1, Fraction(5))):
        with pytest.raises(TypeError):
            nu[v] = value
    assert ft.r_mu(1, 2) == Fraction(5, 27)
    assert nu == dict(nu_oracle(ft))


@pytest.mark.parametrize("n", [2, 3, 9])
def test_nu_view_reads_like_a_dict(n, rng):
    ft = FiniteMeasureTree(random_cladogram(rng, n))
    nu = ft.branch_point_distribution()
    expected = bf_nu(ft.topology)
    order = [*range(1, n + 1), *range(-1, 1 - n, -1)]
    assert len(nu) == 2 * n - 2 and list(nu) == list(nu.keys()) == order
    values = [expected.get(v, Fraction(0)) for v in order]
    assert [nu[v] for v in order] == list(nu.values()) == values
    assert list(nu.items()) == list(zip(order, values))
    assert nu == {v: expected.get(v, Fraction(0)) for v in order}
    assert len(nu.values()) == len(nu.items()) == 2 * n - 2
    for v in order:
        assert v in nu and np.int32(v) in nu
        assert nu[np.int64(v)] is nu[v] and nu.get(v) is nu[v]
    # 0 and the ids just outside 1..N and -1..-(N - 2)
    for bad in (0, n + 1, 1 - n, np.int64(n + 1), 1.0, "1", None):
        assert bad not in nu and nu.get(bad) is None
        with pytest.raises(KeyError):
            nu[bad]
    # one shared atom per leaf, and per distinct internal value
    assert len({id(nu[v]) for v in range(1, n + 1)}) == 1
    internal = [nu[v] for v in range(-1, 1 - n, -1)]
    assert len({id(x) for x in internal}) == len(set(internal))
    for v, value in ((1, Fraction(0)), (-1, Fraction(5)), (n + 1, Fraction(0))):
        with pytest.raises(TypeError):
            nu[v] = value
        with pytest.raises(TypeError):
            del nu[v]
    assert not hasattr(nu, "update") and not hasattr(nu, "__dict__")
    assert ft.branch_point_distribution() is nu


def test_r_mu_diagonal_and_symmetry(rng):
    ft = FiniteMeasureTree(random_cladogram(rng, 10))
    vs = ft.topology.vertices
    for v in vs:
        assert ft.r_mu(v, v) == 0
    for _ in range(50):
        x, y = (vs[i] for i in rng.choice(len(vs), size=2))
        assert ft.r_mu(x, y) == ft.r_mu(y, x)
        assert ft.r_mu(x, y) >= 0


def test_r_mu_brute_force_and_balanced_four(rng):
    ft = FiniteMeasureTree(BALANCED4)
    va, vb = sorted(BALANCED4.internal_vertices, reverse=True)
    assert ft.r_mu(va, vb) == bf_r_mu(BALANCED4, va, vb)
    for m in (6, 9):
        t = random_cladogram(rng, m)
        ft = FiniteMeasureTree(t)
        for x, y in itertools.combinations(t.vertices, 2):
            assert ft.r_mu(x, y) == bf_r_mu(t, x, y)


def test_r_mu_brute_force_at_n20(rng):
    t = random_cladogram(rng, 20)
    ft = FiniteMeasureTree(t)
    nu = bf_nu(t)
    vs = t.vertices
    pairs = [tuple(vs[i] for i in rng.choice(len(vs), size=2, replace=False)) for _ in range(25)]
    for x, y in pairs:
        total = sum((nu.get(v, Fraction(0)) for v in bf_path(t, x, y)), Fraction(0))
        expected = total - Fraction(1, 2) * nu.get(x, Fraction(0)) - Fraction(1, 2) * nu.get(y, Fraction(0))
        assert ft.r_mu(x, y) == expected


@pytest.mark.parametrize("m", [6, 12, 20])
def test_r_mu_triangle_inequality(m, rng):
    ft = FiniteMeasureTree(random_cladogram(rng, m))
    vs = ft.topology.vertices
    cache = {}

    def r(x, y):
        if (x, y) not in cache:
            cache[(x, y)] = cache[(y, x)] = ft.r_mu(x, y)
        return cache[(x, y)]

    triples = itertools.combinations(vs, 3) if m <= 12 else (
        tuple(vs[i] for i in np.random.default_rng(1).choice(len(vs), 3, replace=False))
        for _ in range(300)
    )
    for x, y, z in triples:
        assert r(x, z) <= r(x, y) + r(y, z)
        assert r(x, y) <= r(x, z) + r(z, y)
        assert r(y, z) <= r(y, x) + r(x, z)


@pytest.mark.parametrize("m", [2, 3, 5, 9, 16])
def test_r_mu_numerators_match_r_mu_on_every_pair(m, rng):
    ft = FiniteMeasureTree(random_cladogram(rng, m))
    vs = np.array(ft.topology.vertices)
    x, y = np.meshgrid(vs, vs, indexing="ij")
    got = ft.r_mu_numerators(x, y)
    assert got.shape == x.shape and got.dtype == np.int64
    den = 2 * m**3
    expected = [[ft.r_mu(a, b) * den for b in vs.tolist()] for a in vs.tolist()]
    assert got.tolist() == expected
    # a row broadcast against a column
    assert (ft.r_mu_numerators(vs[:, None], vs) == got).all()


@pytest.mark.parametrize("name", ["comb300", "ford1_300"])
def test_r_mu_numerators_on_deep_trees(name, monkeypatch):
    ft = _component_tree(name)
    vs = ft.topology.vertices
    rng = np.random.default_rng(len(name))
    pairs = [(vs[int(i)], vs[int(j)]) for i, j in rng.integers(0, len(vs), size=(40, 2))]
    x, y = np.array(pairs).T
    den = 2 * ft.n**3
    got = ft.r_mu_numerators(x, y)
    assert got.tolist() == [ft.r_mu(a, b) * den for a, b in pairs]
    # the Python-int path that big trees take, forced on this one
    monkeypatch.setattr(tree_module, "_INT64_METRIC_LEAVES", 0)
    wide = ft.r_mu_numerators(x, y)
    assert wide.dtype == object and wide.tolist() == got.tolist()
    assert all(type(v) is int for v in wide.tolist())


def test_r_mu_numerators_reject_non_vertices():
    ft = build_comb_tree(6)
    for bad in (0, 7, -5):
        for args in (([bad], [1]), ([1, 2], [-1, bad])):
            with pytest.raises(StructureError):
                ft.r_mu_numerators(*args)
    # an empty batch holds no id to check
    assert ft.r_mu_numerators([], []).shape == (0,)
    assert ft.quartet_partners([], [], [], []).shape == (0,)
    assert ft.triple_component_counts([], [], []).shape == (0, 3)


def test_interval_endpoints_and_identity(rng):
    t = random_cladogram(rng, 8)
    ft = FiniteMeasureTree(t)
    for x, y in itertools.combinations(t.vertices, 2):
        path = ft.interval(x, y)
        assert path[0] == x and path[-1] == y
        assert set(path) == set(bf_path(t, x, y))
    assert ft.interval(3, 3) == (3,)


def test_vertex_queries_reject_non_vertices():
    # 0, N + 1 and -(N - 1) lie just outside the ids of a 6-leaf tree
    for ft in (build_comb_tree(6), sample_ford_tree("1/2", 6, np.random.default_rng(6))):
        for bad in (0, 7, -5):
            for args in ((bad, 1, 2), (1, bad, 2), (1, 2, bad)):
                with pytest.raises(StructureError):
                    ft.branch_point(*args)
            for query in (ft.interval, ft.r_mu):
                for args in ((bad, 1), (-1, bad)):
                    with pytest.raises(StructureError):
                        query(*args)


def test_batched_queries_reject_leaf_ids_out_of_range():
    ft = build_comb_tree(6)
    ok = [[1, 2], [2, 3], [3, 4], [4, 5]]
    for bad in (0, 7, -1):
        for i in range(4):
            quad = [np.array(x) for x in ok]
            quad[i][1] = bad
            with pytest.raises(StructureError):
                ft.quartet_partners(*quad)
            if i < 3:
                with pytest.raises(StructureError):
                    ft.triple_component_counts(*quad[:3])
    assert ft.quartet_partners(*ok).tolist() == [1, 1]


_PAIR = np.array([1, 2])


@pytest.mark.parametrize(
    "query,args",
    [
        ("branch_point", (1.0, 2, 3)),
        ("branch_point", (1, True, 3)),
        ("interval", (True, 3)),
        ("interval", (2, 3.0)),
        ("r_mu", (True, 3)),
        ("r_mu", (-1, "2")),
        ("component_leaf_counts", ((1, 2, 3.0),)),
        ("quartet_partners", ([1.0], [2], [3], [4])),
        ("quartet_partners", (_PAIR, _PAIR + 2, _PAIR + 4, np.array([True, False]))),
        ("triple_component_counts", ([1.0], [2], [3])),
        ("triple_component_counts", (_PAIR, _PAIR + 2, np.array([True, True]))),
        ("r_mu_numerators", ([1.0], [2])),
        ("r_mu_numerators", (np.array([True]), [2])),
    ],
)
def test_vertex_ids_must_be_integers(query, args):
    with pytest.raises(TypeError):
        getattr(build_comb_tree(10), query)(*args)


def test_numpy_integer_ids_pass():
    ft = build_comb_tree(10)
    assert ft.branch_point(np.int32(1), np.uint8(2), np.int64(3)) == ft.branch_point(1, 2, 3)
    assert ft.interval(np.int16(-1), 3) == ft.interval(-1, 3)
    assert ft.r_mu(np.int64(1), np.int8(-2)) == ft.r_mu(1, -2)
    widths = (np.int8, np.uint16, np.int32, np.uint64)
    quad = [np.array([1, 2], dt) + i for i, dt in enumerate(widths)]
    expected = ft.quartet_partners(*(q.tolist() for q in quad)).tolist()
    assert ft.quartet_partners(*quad).tolist() == expected
    # a uint64 id past 2^63 is no leaf
    with pytest.raises(StructureError):
        ft.quartet_partners(np.array([2**64 - 1], np.uint64), [2], [3], [4])


def test_triple_component_counts_reject_repeated_leaves():
    ft = build_comb_tree(10)
    with pytest.raises(StructureError):
        ft.triple_component_counts([1], [1], [2])
    rows = np.tile([[1, 2, 3]], (3 * tree_module._QUARTET_BLOCK, 1))
    for i, j in itertools.combinations(range(3), 2):
        bad = rows.copy()
        bad[-1, j] = bad[-1, i]
        with pytest.raises(StructureError):
            ft.triple_component_counts(*bad.T)


def test_quartet_partners_reject_repeated_leaves():
    ft = build_comb_tree(10)
    rows = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    assert ft.quartet_partners(*rows.T).shape == (2,)
    # a repeat in any of the six pairs, in the last block of a long batch
    long = np.tile(rows, (tree_module._QUARTET_BLOCK, 1))
    for i, j in itertools.combinations(range(4), 2):
        bad = long.copy()
        bad[-1, j] = bad[-1, i]
        with pytest.raises(StructureError):
            ft.quartet_partners(*bad.T)


def test_quartet_partners_against_oracle(rng):
    t = random_cladogram(rng, 11)
    ft = FiniteMeasureTree(t)
    quads = [rng.choice(11, size=4, replace=False) + 1 for _ in range(100)]
    arr = np.array(quads)
    codes = ft.quartet_partners(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
    for row, code in zip(quads, codes):
        assert code == bf_quartet_partner(t, *(int(x) for x in row))


def _median_rule(ft: FiniteMeasureTree, quads: np.ndarray) -> np.ndarray:
    """Partner codes of (rows, 4) leaf ids by equality of medians: a pairs
    with b iff c(a,b,c) == c(a,b,d), else with c iff c(a,b,c) == c(a,c,d)."""
    idx = ft.index
    pa, pb, pc, pd = (quads[:, i] - 1 for i in range(4))
    m_abc = idx.median(pa, pb, pc)
    return np.where(
        m_abc == idx.median(pa, pb, pd), 1, np.where(m_abc == idx.median(pa, pc, pd), 2, 3)
    )


def test_quartet_partners_across_blocks_and_shapes():
    # more rows than three LCA blocks, the last one partial; a shift of a
    # block's rows or a swapped pair shows against the median rule
    ft = sample_ford_tree("1/3", 300, np.random.default_rng(5))
    rows = 3 * tree_module._QUARTET_BLOCK + 5
    quads = ft.sample_distinct_leaves(rows, 4, np.random.default_rng(6))
    codes = ft.quartet_partners(*quads.T)
    assert codes.shape == (rows,) and codes.dtype == np.int64
    expected = _median_rule(ft, quads)
    assert (codes == expected).all()
    assert set(np.unique(codes).tolist()) == {1, 2, 3}
    # a 2-D batch answers row by row in its own shape
    grid = quads[:77].reshape(7, 11, 4)
    assert (ft.quartet_partners(*np.moveaxis(grid, 2, 0)) == expected[:77].reshape(7, 11)).all()
    # a column of a broadcasts against (rows, 2) columns of b, c, d, as the
    # shape estimator asks
    five = ft.sample_distinct_leaves(50, 5, np.random.default_rng(7))
    got = ft.quartet_partners(five[:, :1], five[:, [1, 2]], five[:, [2, 3]], five[:, [3, 4]])
    assert got.shape == (50, 2)
    for col, (j, k, l) in enumerate([(1, 2, 3), (2, 3, 4)]):
        assert (got[:, col] == _median_rule(ft, five[:, [0, j, k, l]])).all()
    assert ft.quartet_partners(*np.ones((4, 0, 3), np.int64)).shape == (0, 3)


def test_triple_component_counts_matches_exact(rng):
    t = random_cladogram(rng, 13)
    ft = FiniteMeasureTree(t)
    trips = np.array([rng.choice(13, size=3, replace=False) + 1 for _ in range(80)])
    counts = ft.triple_component_counts(trips[:, 0], trips[:, 1], trips[:, 2])
    for row, cnt in zip(trips, counts):
        assert tuple(cnt) == ft.component_leaf_counts(tuple(int(x) for x in row))


def _component_tree(name: str) -> FiniteMeasureTree:
    if name == "comb300":
        return build_comb_tree(300)
    if name == "ford1_300":
        return sample_ford_tree(1, 300, np.random.default_rng(300))
    m = int(name.removeprefix("random"))
    return FiniteMeasureTree(random_cladogram(np.random.default_rng(m), m))


# the 300-leaf comb and alpha=1 tree have depth ~300, so sampled leaves lie far
# below the branch point and the child leading to them is far above them
@pytest.mark.parametrize(
    "name",
    ["random3", "random4", "random6", "random11", "random23", "random40", "comb300", "ford1_300"],
)
def test_component_counts_against_bfs_oracle(name):
    ft = _component_tree(name)
    t = ft.topology
    trips = ft.sample_distinct_leaves(60, 3, np.random.default_rng(len(name)))
    batched = ft.triple_component_counts(trips[:, 0], trips[:, 1], trips[:, 2])
    for row, counts in zip(trips, batched):
        u = tuple(int(x) for x in row)
        comps = bf_components(t, bf_median(t, *u))
        expected = tuple(leaf_count(next(c for c in comps if x in c)) for x in u)
        assert tuple(int(c) for c in counts) == expected
        assert ft.component_leaf_counts(u) == expected
    counts = ft.component_counts()
    assert counts.shape == (len(t.internal_vertices), 3) and counts.dtype == np.int64
    for v, (c1, c2, rest) in zip(t.internal_vertices, counts.tolist()):
        comps = bf_components(t, v)
        # the third entry is the component holding leaf 1, the root of the index
        assert rest == leaf_count(next(c for c in comps if 1 in c))
        assert sorted((c1, c2)) == sorted(leaf_count(c) for c in comps if 1 not in c)


def test_index_ancestor_tests_every_vertex_pair():
    # every vertex pair, internal ones included: the walk visits a leaf before
    # its internal sibling, so leaf queries alone miss an off-by-one in a
    # subtree's last position
    trees = [t for m in range(3, 7) for t in enumerate_cladograms(m)]
    trees.append(random_cladogram(np.random.default_rng(40), 40))
    for t in trees:
        idx = FiniteMeasureTree(t).index
        V = 2 * t.m - 2
        # position p holds leaf p + 1 or internal vertex m - 1 - p
        ids = [p + 1 if p < t.m else t.m - 1 - p for p in range(V)]
        a, u = (x.ravel() for x in np.meshgrid(np.arange(V), np.arange(V)))
        above = [set(bf_path(t, ids[p], 1)) for p in range(V)]
        expected = [ids[i] in above[j] for i, j in zip(a.tolist(), u.tolist())]
        assert idx.is_ancestor(a, u).tolist() == expected
        v, w = a[(a >= t.m) & (a != u)], u[(a >= t.m) & (a != u)]
        comps = {p: bf_components(t, ids[p]) for p in range(t.m, V)}
        expected = [
            leaf_count(next(c for c in comps[i] if ids[j] in c))
            for i, j in zip(v.tolist(), w.tolist())
        ]
        assert idx.component_leaf_count(v, w).tolist() == expected


@pytest.mark.parametrize("name", ["comb", "ford"])
@pytest.mark.parametrize("n", [33, 65])
def test_lca_at_every_query_length(name, n):
    # every vertex pair, u == v included, at every preorder distance from
    # 1 to V - 1 (V = 64 and 128).  Vertex pairs go through lca_key's
    # ancestor test and its reduction to the last leaves of the two
    # subtrees; the table ranges over leaf ranks, of every length, are
    # covered by test_leaf_lca_on_every_leaf_pair
    rng = np.random.default_rng(n)
    ft = build_comb_tree(n) if name == "comb" else sample_ford_tree("1/3", n, rng)
    t, idx = ft.topology, ft.index
    V = 2 * n - 2
    ids = [p + 1 if p < n else n - 1 - p for p in range(V)]
    pos = {v: p for p, v in enumerate(ids)}
    up = [bf_path(t, 1, v) for v in ids]  # v, its parent, ..., leaf 1
    above = [set(path) for path in up]
    u, w = (x.ravel() for x in np.meshgrid(np.arange(V), np.arange(V)))
    lengths = np.abs(idx.first[u] - idx.first[w])
    assert set(np.maximum(lengths, 1).tolist()) == set(range(1, V))
    expected = [
        pos[next(v for v in up[i] if v in above[j])] for i, j in zip(u.tolist(), w.tolist())
    ]
    assert idx.lca(u, w).tolist() == expected


def _walk_lca(parent: list[int], u: int, v: int) -> int:
    """LCA of two index positions by climbing the parent pointers."""
    above = {u}
    while parent[u] >= 0:
        u = parent[u]
        above.add(u)
    while v not in above:
        v = parent[v]
    return v


@pytest.mark.parametrize(
    "alpha,n,pairs", [("0", 500, 3000), ("1/2", 500, 3000), ("1", 500, 3000), ("1", 100_000, 40)]
)
def test_lca_against_parent_walk(alpha, n, pairs):
    ft = sample_ford_tree(alpha, n, np.random.default_rng(n + len(alpha)))
    idx = ft.index
    if n == 100_000:
        # the comb-like tree's keys depth * 2^shift pass 2^31
        assert int(idx.depth.max()) << idx.shift > 2**31
        assert idx.sparse.dtype == np.int64
    V = 2 * n - 2
    rng = np.random.default_rng(pairs)
    u, v = rng.integers(0, V, size=(2, pairs))
    # the deepest vertices, u == v, and pairs with leaf 1 (position 0)
    deep = np.argsort(idx.depth)[-pairs // 4 :]
    u[: len(deep)] = deep
    v[:5], u[5:10], v[10] = u[:5], 0, 0
    parent = idx.parent.tolist()
    expected = [_walk_lca(parent, a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert idx.lca(u, v).tolist() == expected
    assert idx.lca(v, u).tolist() == expected
    keys = idx.lca_key(u, v)
    assert (keys >> idx.shift).tolist() == idx.depth[expected].tolist()


@pytest.mark.parametrize("n", [2, 3, 33, 100_000])
def test_lca_table_holds_the_adjacent_leaf_lcas(n):
    # N - 1 columns, one per pair of preorder-adjacent leaves, each the
    # packed key of their LCA; leaf 1 comes first in the preorder
    ft = sample_ford_tree("1/2", n, np.random.default_rng(n))
    idx = ft.index
    assert idx.sparse.shape == ((n - 1).bit_length(), n - 1)
    assert idx.sparse.dtype == np.int64
    leaves = idx.order[idx.order < n]
    assert leaves[0] == 0 and idx.rank[leaves].tolist() == list(range(n))
    sample = np.random.default_rng(1).integers(0, n - 1, size=min(n - 1, 500))
    parent = idx.parent.tolist()
    lca = [_walk_lca(parent, int(leaves[t]), int(leaves[t + 1])) for t in sample.tolist()]
    assert idx.sparse[0, sample].tolist() == [(int(idx.depth[w]) << idx.shift) | w for w in lca]


@pytest.mark.parametrize("name", ["comb", "ford"])
@pytest.mark.parametrize("n", [33, 65])
def test_leaf_lca_on_every_leaf_pair(name, n):
    # every leaf pair, leaf 1 and u == v included, so the table range
    # min rank .. max rank - 1 takes every length from 0 to N - 1
    rng = np.random.default_rng(n + 1)
    ft = build_comb_tree(n) if name == "comb" else sample_ford_tree("1/3", n, rng)
    idx = ft.index
    u, v = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n)))
    parent = idx.parent.tolist()
    expected = [_walk_lca(parent, a, b) for a, b in zip(u.tolist(), v.tolist())]
    keys = idx.leaf_key(u, v)
    assert (keys & idx.mask).tolist() == expected
    assert (keys >> idx.shift).tolist() == idx.depth[expected].tolist()
    assert (idx.leaf_key(u, v) == idx.lca_key(u, v)).all()


@pytest.mark.parametrize("n", [2, 3])
def test_lca_median_and_quartets_on_the_smallest_trees(n):
    ft = build_comb_tree(n)
    t, idx = ft.topology, ft.index
    vs = list(t.vertices)
    pos = ft._positions(vs)[0]
    for i, j in itertools.product(range(len(vs)), repeat=2):
        path = bf_path(t, 1, vs[i])
        expected = next(w for w in path if w in bf_path(t, 1, vs[j]))
        assert ft._vertex(idx.lca(pos[[i]], pos[[j]])[0]) == expected
    for x, y, z in itertools.product(vs, repeat=3):
        assert ft.branch_point(x, y, z) == bf_median(t, x, y, z)
    leaves = np.arange(n)
    for x, y, z in itertools.product(leaves, repeat=3):
        got = idx.median(*np.array([[x], [y], [z]]), leaves=True)[0]
        assert ft._vertex(got) == bf_median(t, x + 1, y + 1, z + 1)
    if n == 3:
        assert ft.triple_component_counts([1, 3], [2, 1], [3, 2]).tolist() == [[1, 1, 1]] * 2
    assert ft.quartet_partners([], [], [], []).shape == (0,)
    with pytest.raises(StructureError):
        ft.quartet_partners([1], [2], [n], [1])


def _walk_interval(parent: list[int], u: int, v: int) -> list[int]:
    """Positions on the path u..v, by climbing the parent pointers."""
    top = _walk_lca(parent, u, v)
    up, down = [u], [v]
    for side in (up, down):
        while side[-1] != top:
            side.append(parent[side[-1]])
    return up + down[-2::-1]


def test_vertex_lca_on_ancestor_pairs_and_leaf_one():
    # the vertex path: a pair whose later vertex lies in the earlier one's
    # subtree, pairs with leaf 1, whose subtree runs to the last position,
    # and vertices with themselves, against the parent walk
    ft = sample_ford_tree("1", 200, np.random.default_rng(200))
    idx, n = ft.index, ft.n
    parent = idx.parent.tolist()
    rng = np.random.default_rng(3)
    pairs = []
    for u in rng.integers(1, 2 * n - 2, size=60).tolist():
        a = u
        for _ in range(int(rng.integers(1, int(idx.depth[u]) + 1))):
            a = parent[a]
        pairs += [(a, u), (u, a), (0, u), (u, 0), (u, u)]
    pairs += [(0, 0), (0, 2 * n - 3)]
    nu = ft.branch_point_distribution()
    den = 2 * n**3
    x, y = (np.array([ft._vertex(p) for p in side]) for side in zip(*pairs))
    expected = []
    for (pu, pv), a, b in zip(pairs, x.tolist(), y.tolist()):
        path = [ft._vertex(p) for p in _walk_interval(parent, pu, pv)]
        assert ft.interval(a, b) == tuple(path)
        total = sum((nu[w] for w in path), Fraction(0)) - (nu[a] + nu[b]) / 2
        expected.append(total * den)
    assert ft.r_mu_numerators(x, y).tolist() == expected


def test_exact_statistics_build_no_lca_table(monkeypatch):
    # nu, the count table, the exact moments and Phi^m read subtree counts,
    # the children and the preorder; only an LCA query needs the table
    def refuse(idx):
        raise AssertionError("built the LCA table")

    monkeypatch.setattr(tree_module._Index, "sparse", property(refuse))
    for ft in (sample_ford_tree("1/2", 300, np.random.default_rng(8)), build_comb_tree(40)):
        assert sum(ft.branch_point_distribution().values()) == 1
        assert ft.component_counts().sum() == ft.n * (ft.n - 2)
        assert exact_tree_moment(ft, (1, 0, 0)) == Fraction(1, 3)
        assert sum(exact_shape_vector(ft, 5)) == Fraction(math.perm(ft.n, 5), ft.n**5)
        assert "sparse" not in vars(ft.index)


def test_lca_queries_build_the_table_once(monkeypatch):
    builds = []
    build = tree_module._Index.sparse.func

    def counted(idx):
        builds.append(idx)
        return build(idx)

    table = functools.cached_property(counted)
    table.__set_name__(tree_module._Index, "sparse")
    monkeypatch.setattr(tree_module._Index, "sparse", table)
    a, b, c, d = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]).T
    queries = [
        lambda ft: ft.quartet_partners(a, b, c, d),
        lambda ft: ft.triple_component_counts(a, b, c),
        lambda ft: ft.r_mu_numerators(a, -b),
    ]
    for query in queries:
        ft = sample_ford_tree("1/3", 60, np.random.default_rng(9))
        builds.clear()
        first = query(ft)
        assert (query(ft) == first).all()
        assert builds == [ft.index]


def _argsort_children(idx) -> np.ndarray:
    """The children of the internal vertices by a stable sort of the
    vertices by parent; the first, leaf 1's neighbour, is leaf 1's, which
    has no row."""
    by_parent = np.argsort(idx.parent[1:], kind="stable") + 1
    return by_parent[1:].reshape(-1, 2)


def test_children_read_off_the_preorder():
    rng = np.random.default_rng(2)
    trees = [random_cladogram(rng, m) for m in (2, 3, 4, 5, 6, 7, 40)]
    trees += [build_comb_tree(m).topology for m in (2, 3, 4, 300)]
    trees += [sample_ford_tree(a, m, rng).topology for a in ("0", "1/2", "1") for m in (3, 8, 2000)]
    for t in trees:
        idx = FiniteMeasureTree(t).index
        assert idx.children.dtype == np.int64
        assert idx.children.tobytes() == _argsort_children(idx).tobytes()


def test_sample_distinct_leaves(rng):
    ft = build_comb_tree(10)
    draws = ft.sample_distinct_leaves(500, 4, rng)
    assert draws.shape == (500, 4)
    assert draws.min() >= 1 and draws.max() <= 10
    for row in draws:
        assert len(set(row.tolist())) == 4


def _redraw_whole_rows(n, count, k, rng):
    """The sampler's first regime written out: iid rows, every row with a
    repeat redrawn whole until none is left."""
    out = rng.integers(1, n + 1, size=(count, k))
    while True:
        bad = np.array([len(set(row)) < k for row in out.tolist()], dtype=bool)
        if not bad.any():
            return out
        out[bad] = rng.integers(1, n + 1, size=(int(bad.sum()), k))


@pytest.mark.parametrize("n,k", [(3, 3), (4, 3), (10, 4), (40, 8), (100, 12), (2000, 4)])
def test_sample_distinct_leaves_keeps_its_seeded_stream(n, k):
    # where k iid leaves are distinct with probability >= 1/8 (every seeded
    # use so far) the rows are the redraw loop's, draw for draw
    ft = build_comb_tree(n)
    got = ft.sample_distinct_leaves(300, k, np.random.default_rng(n * k))
    assert got.tolist() == _redraw_whole_rows(n, 300, k, np.random.default_rng(n * k)).tolist()


@contextlib.contextmanager
def _time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_sample_distinct_leaves_close_to_every_leaf_returns():
    # 20 iid leaves of 20 are distinct with probability 20!/20^20 ~ 2e-8, so
    # redrawing whole rows until they are distinct does not finish
    ft = build_comb_tree(20)
    rng = np.random.default_rng(3)
    with _time_limit(5):
        every = ft.sample_distinct_leaves(1, 20, rng)
        most = ft.sample_distinct_leaves(100, 16, rng)
    assert sorted(every[0].tolist()) == list(range(1, 21))
    assert most.shape == (100, 16) and most.min() >= 1 and most.max() <= 20
    assert all(len(set(row)) == 16 for row in most.tolist())


@pytest.mark.parametrize("n", [5, 6])
def test_sample_distinct_leaves_uniform_at_all_but_one_leaf(n):
    # k = n - 1 iid leaves are distinct with probability 0.19 at n = 5 (the
    # redraw regime) and 0.09 at n = 6 (a Floyd subset, shuffled); each of
    # the n! ordered rows is equally likely in both
    ft = build_comb_tree(n)
    cells = math.factorial(n)
    rows = ft.sample_distinct_leaves(100 * cells, n - 1, np.random.default_rng(11 + n))
    code = (rows - 1) @ (n ** np.arange(n - 1))
    observed = np.unique(code, return_counts=True)[1]
    assert len(observed) == cells
    assert chisquare(observed).pvalue > 1e-3


def test_sample_distinct_leaves_past_the_redraw_regime_on_a_big_tree():
    # 645 iid leaves of 10^5 are distinct with probability < 1/8, 644 are not;
    # the draw holds the k columns of a row, never a row of all n leaves
    n, count = 100_000, 100
    ft = build_comb_tree(n)
    k = next(k for k in range(n) if math.perm(n, k) * 8 < n**k)
    assert k == 645
    tracemalloc.start()
    try:
        rows = ft.sample_distinct_leaves(count, k, np.random.default_rng(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (count, k) and rows.min() >= 1 and rows.max() <= n
    assert (np.diff(np.sort(rows, axis=1), axis=1) > 0).all()
    assert peak < 32 * rows.nbytes < count * n * 8
    # each column is uniform over the leaves
    assert chisquare(np.bincount((rows[:, -1] - 1) * 10 // n, minlength=10)).pvalue > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_index_against_oracle_random(seed, m):
    rng = np.random.default_rng(seed)
    t = random_cladogram(rng, m)
    ft = FiniteMeasureTree(t)
    vs = t.vertices
    x, y, z = (vs[int(i)] for i in rng.integers(0, len(vs), size=3))
    assert ft.branch_point(x, y, z) == bf_median(t, x, y, z)


@pytest.mark.parametrize("name", ["comb300", "ford1_300"])
def test_index_against_oracle_on_deep_trees(name):
    # vertex triples, internal vertices and repeats included, on trees of
    # depth ~300, where preorder positions of a triple lie far apart
    ft = _component_tree(name)
    t = ft.topology
    vs = t.vertices
    rng = np.random.default_rng(len(name))
    for _ in range(200):
        x, y, z = (vs[int(i)] for i in rng.integers(0, len(vs), size=3))
        if rng.random() < 0.2:
            z = x
        assert ft.branch_point(x, y, z) == bf_median(t, x, y, z)
        assert ft.interval(x, y) == tuple(reversed(bf_path(t, x, y)))
