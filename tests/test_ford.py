import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from alphaford._rng import stream
from alphaford.cladogram import Cladogram, StructureError, enumerate_cladograms, shape
from alphaford.ford import (
    _evaluate,
    _grow_edges,
    _law,
    _times,
    build_comb_tree,
    deletion_stability_check,
    exact_distribution,
    sample_ford_cladogram,
    sample_ford_tree,
    sample_kingman_cladogram,
)

CHI2_REJECT = 1e-3  # fixed seeds make these deterministic
ALPHAS = ["0", "1/4", "1/2", "3/4", "1"]


def chisquare_pvalue(counts: Counter, probs: dict, total: int) -> float:
    support = {k: p for k, p in probs.items() if p > 0}
    assert sum(counts.get(k, 0) for k in probs if probs[k] == 0) == 0
    observed = np.array([counts.get(key, 0) for key in support])
    expected = np.array([float(p) * total for p in support.values()])
    return stats.chisquare(observed, expected).pvalue


def kingman_history_distribution(m: int) -> dict:
    """Exact coalescent law by enumerating every sequence of pair mergers."""

    def rec(blocks, edges, nxt):
        if len(blocks) == 2:
            yield edges + [(blocks[0], blocks[1])]
            return
        for i, j in itertools.combinations(range(len(blocks)), 2):
            nb = list(blocks)
            ne = edges + [(nxt, nb[i]), (nxt, nb[j])]
            nb[i] = nxt
            nb.pop(j)
            yield from rec(nb, ne, nxt - 1)

    counts = Counter(Cladogram(m, e).key for e in rec(list(range(1, m + 1)), [], -1))
    total = sum(counts.values())
    return {k: Fraction(c, total) for k, c in counts.items()}


# -- samplers -----------------------------------------------------------------


def test_sample_m3_is_deterministic():
    t3 = enumerate_cladograms(3)[0]
    rng = stream(1)
    assert all(sample_ford_cladogram("1/2", 3, rng) == t3 for _ in range(20))


def test_sample_m4_uniform_any_alpha():
    dist = exact_distribution("7/8", 4)
    rng = stream(2)
    counts = Counter(sample_ford_cladogram("7/8", 4, rng).key for _ in range(6000))
    assert chisquare_pvalue(counts, dist.table, 6000) > CHI2_REJECT


@pytest.mark.parametrize("alpha,m", [("0", 6), ("1/2", 5), ("1/2", 6), ("3/4", 6), ("1", 6)])
def test_sampler_matches_exact_distribution(alpha, m):
    dist = exact_distribution(alpha, m)
    rng = stream(3)
    n = 20000
    counts = Counter(sample_ford_cladogram(alpha, m, rng).key for _ in range(n))
    assert chisquare_pvalue(counts, dist.table, n) > CHI2_REJECT


def test_alpha_one_sampler_yields_caterpillars():
    rng = stream(4)
    for _ in range(50):
        t = sample_ford_cladogram("1", 9, rng)
        assert len(t.cherries()) == 4  # binary tree is a caterpillar iff 2 cherry pairs
    # a comb-like tree of depth ~20 000: every step after the first two splits an
    # internal edge, so the birth parents chain through earlier insertions
    big = sample_ford_tree("1", 20_000, rng)
    assert len(big.topology.cherries()) == 4


class _FixedUniforms:
    """Stands in for a generator: its one ``random`` call returns the given
    block of uniforms."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=float).reshape(-1, 2)

    def random(self, shape):
        assert shape == self.draws.shape
        return self.draws


def _growth_steps(alpha: Fraction, n: int):
    """Per growth step, every (class, index) choice as (u0, u1, probability),
    with uniforms that make ``_grow_edges`` take that choice."""
    for k in range(2, n):  # k leaves before the step
        n_ext, n_int = (1 if k == 2 else k), max(k - 3, 0)
        ext, total = (1 - alpha) * n_ext, (1 - alpha) * n_ext + alpha * n_int
        p_ext = Fraction(1) if total == 0 else ext / total
        choices = []
        if p_ext > 0:
            choices += [(float(p_ext) / 2, (j + 0.5) / n_ext, p_ext / n_ext) for j in range(n_ext)]
        if p_ext < 1:
            u0 = (1 + float(p_ext)) / 2
            choices += [(u0, (i + 0.5) / n_int, (1 - p_ext) / n_int) for i in range(n_int)]
        yield choices


def _insertion_law_oracle(alpha: Fraction, n: int) -> dict:
    """Law of the growth on insertion-labelled n-cladograms: leaf k + 1 goes
    into an edge of the current tree, picked with weight 1 - alpha if it is
    external and alpha if it is internal (uniformly if all weights vanish)."""
    t2 = Cladogram(2, [(1, 2)])
    trees, law = {t2.key: t2}, {t2.key: Fraction(1)}
    for _ in range(2, n):
        grown = Counter()
        for key, p in law.items():
            edges = trees[key].edges
            weights = [1 - alpha if v > 0 else alpha for _, v in edges]
            if not any(weights):
                weights = [Fraction(v > 0) for _, v in edges]
            total = sum(weights)
            for e, w in zip(edges, weights):
                if w:
                    child = trees[key].insert_leaf(e)
                    trees[child.key] = child
                    grown[child.key] += p * w / total
        law = grown
    return dict(law)


@pytest.mark.parametrize("alpha", ["0", "1/3", "1/2", "3/4", "1"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_grower_law_is_exact(alpha, n):
    # every class/index sequence of _grow_edges, weighed by its probability,
    # gives the law of edge-weighted insertion on insertion-labelled trees
    alpha = Fraction(alpha)
    law = Counter()
    for seq in itertools.product(*_growth_steps(alpha, n)):
        draws = [(u0, u1) for u0, u1, _ in seq]
        edges = _grow_edges(alpha, n, _FixedUniforms(draws))
        law[Cladogram(n, edges).key] += math.prod(p for _, _, p in seq)
    assert dict(law) == _insertion_law_oracle(alpha, n)


class _NoDraws:
    """A generator that fails the test if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


@pytest.mark.parametrize("count", [5.0, 5.5, "5", True, np.True_, None])
def test_leaf_counts_must_be_integers(count):
    calls = [
        lambda: sample_ford_cladogram("1/2", count, _NoDraws()),
        lambda: sample_ford_tree("1/2", count, _NoDraws()),
        lambda: sample_kingman_cladogram(count, _NoDraws()),
        lambda: build_comb_tree(count),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="leaf count must be an integer"):
            call()
    rng = stream(8)
    assert sample_ford_cladogram("1/2", np.int64(5), rng).m == 5
    assert sample_ford_tree("1/2", np.int32(5), rng).n == 5
    assert sample_kingman_cladogram(np.int64(5), rng).m == 5
    assert build_comb_tree(np.int64(5)).n == 5


def test_sample_tree_two_leaves():
    ft = sample_ford_tree("1/2", 2, stream(5))
    assert ft.n == 2
    assert ft.branch_point_distribution() == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_sample_tree_has_uniform_mass_and_valid_topology():
    ft = sample_ford_tree("1/3", 40, stream(6))
    assert ft.n == 40
    assert ft.leaf_mass == Fraction(1, 40)
    assert sum(ft.branch_point_distribution().values()) == 1


@pytest.mark.parametrize("m", [4, 5])
def test_kingman_sampler_matches_alpha_zero(m):
    dist = exact_distribution(0, m)
    rng = stream(7)
    n = 15000
    counts = Counter(sample_kingman_cladogram(m, rng).key for _ in range(n))
    assert chisquare_pvalue(counts, dist.table, n) > CHI2_REJECT


def test_two_leaf_builders_give_the_one_tree_with_no_draw():
    t2 = Cladogram(2, [(1, 2)])
    assert build_comb_tree(2).topology == t2
    assert sample_kingman_cladogram(2, _NoDraws()) == t2


def test_kingman_m4_cherry_pairing_probability():
    # exact: 18 merge histories, 6 producing the {1,2},{3,4} pairing
    hist = kingman_history_distribution(4)
    target = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    assert hist[target.key] == Fraction(1, 3)
    assert exact_distribution(0, 4).table == hist


# -- comb ---------------------------------------------------------------------


def test_comb_small_cases():
    expected = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    assert build_comb_tree(4).topology == expected


def test_comb_counts():
    ft = build_comb_tree(10)
    assert len(ft.topology.internal_vertices) == 8
    assert len(ft.topology.edges) == 17
    assert len(ft.topology.cherries()) == 4


def test_comb_n4_is_the_unique_shape():
    t = build_comb_tree(4).topology
    assert t.key in {s.key for s in enumerate_cladograms(4)}


# -- exact distributions ---------------------------------------------------------


def test_exact_m4_uniform_every_alpha():
    for alpha in ALPHAS:
        dist = exact_distribution(alpha, 4)
        assert all(p == Fraction(1, 3) for p in dist.table.values())


def test_exact_m5_uniform_at_half():
    dist = exact_distribution("1/2", 5)
    assert all(p == Fraction(1, 15) for p in dist.table.values())


def test_exact_matches_kingman_history_oracle():
    for m in (4, 5, 6):
        assert exact_distribution(0, m).table == kingman_history_distribution(m)


def test_exact_total_mass_and_nonnegativity():
    for alpha in ALPHAS:
        for m in (5, 6, 7):
            dist = exact_distribution(alpha, m)
            assert dist.total() == 1
            assert all(p >= 0 for p in dist.table.values())


def test_exact_alpha_one_supported_on_caterpillars():
    dist = exact_distribution(1, 6)
    for t in enumerate_cladograms(6):
        if len(t.cherries()) == 4:
            assert dist.table[t.key] > 0
        else:
            assert dist.table[t.key] == 0


def test_exact_exchangeability_under_relabeling(rng):
    for alpha in ("0", "2/3"):
        for m in (5, 6):
            dist = exact_distribution(alpha, m)
            for _ in range(5):
                perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(m))}
                for t in enumerate_cladograms(m):
                    relabeled = Cladogram(
                        m,
                        [
                            (perm.get(u, u), perm.get(v, v))
                            for u, v in t.edges
                        ],
                    )
                    assert dist.table[relabeled.key] == dist.table[t.key]


@pytest.mark.parametrize("alpha", ["0", "1/3", "1/2", "1", "99991/100003"])
def test_exact_table_is_one_fraction_per_state_value(alpha):
    # against a Fraction built per state from the evaluated numerators, key
    # order included; equal values share one atom object
    alpha = Fraction(alpha)
    for m in range(2, 9):
        num, den = _law(m)
        den = _evaluate(den, alpha)
        expected = [Fraction(n, den) for n in _evaluate(num, alpha).tolist()]
        table = exact_distribution(alpha, m).table
        assert list(table) == list(enumerate_cladograms(m).keys)
        assert list(table.values()) == expected
        assert all(type(p) is Fraction for p in table.values())
        assert len({id(p) for p in table.values()}) == len(set(expected))


def test_exact_m8_law_holds_one_atom_per_unlabeled_shape():
    # the four unlabeled 8-cladograms take four distinct values at alpha = 1/3
    assert len({id(p) for p in exact_distribution("1/3", 8).table.values()}) == 4


def test_exact_guard():
    with pytest.raises(StructureError):
        exact_distribution("1/2", 9)


@pytest.mark.parametrize("m", [5.0, 5.5, True, "5"])
def test_exact_leaf_count_must_be_an_integer(m):
    cached = _law.cache_info().currsize
    for call in (exact_distribution, deletion_stability_check):
        with pytest.raises(TypeError, match="leaf count must be an integer"):
            call("1/2", m)
    assert _law.cache_info().currsize == cached
    law = exact_distribution("1/2", np.int64(5))
    assert type(law.m) is int and law == exact_distribution("1/2", 5)


def test_as_vector_rejects_states_of_another_size():
    dist = exact_distribution(0, 6)
    assert sum(dist.as_vector(enumerate_cladograms(6))) == 1
    for m in (5, 7):
        with pytest.raises(StructureError):
            dist.as_vector(enumerate_cladograms(m))


# -- deletion stability ------------------------------------------------------------


@pytest.mark.parametrize("rows,width,degree", [(945, 4, 2), (10395, 5, 4), (105, 3, 3), (1, 1, 1)])
def test_times_matches_a_per_row_convolution(rows, width, degree):
    rng = np.random.default_rng(rows)
    coeffs = rng.integers(-10**6, 10**6, size=(rows, width))
    poly = rng.integers(-10**6, 10**6, size=degree)
    expected = np.array([np.convolve(row, poly) for row in coeffs])
    for p in (poly, poly.tolist()):  # the callers pass int64 arrays and int lists
        got = _times(coeffs, p)
        assert got.dtype == np.int64 and np.array_equal(got, expected)



@pytest.mark.parametrize("alpha", ALPHAS)
def test_deletion_stability_m5(alpha):
    ok, residual = deletion_stability_check(alpha, 5)
    assert ok and residual == 0


def test_deletion_stability_m6_half():
    ok, residual = deletion_stability_check("1/2", 6)
    assert ok and residual == 0


def test_deletion_stability_m4_trivial():
    ok, residual = deletion_stability_check("1/3", 4)
    assert ok and residual == 0


NO_TREES = """
from alphaford import chain, cladogram, ford

def refuse(*args, **kwargs):
    raise AssertionError("a Cladogram was built")

cladogram.Cladogram.__init__ = refuse
law = ford.exact_distribution("1/3", 8)
assert len(law.table) == 10395 and sum(law.table.values()) == 1
assert ford.deletion_stability_check("1/3", 8) == (True, 0)
assert chain.verify_invariance("1/3", 7) == 0 and chain.verify_beta_is_rate_discrepancy("1/3", 7)
"""


def test_exact_layer_builds_no_tree():
    """The m = 8 law, the deletion check and the m = 7 chain tables run on
    the split-mask tables alone, in a fresh interpreter whose cladogram
    constructor raises."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", NO_TREES], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


# -- sampling consistency -----------------------------------------------------------


def test_sampling_consistency_m6_subsamples():
    # shapes of uniform 6-subsamples of a large alpha-Ford tree follow the
    # 6-leaf law; this exercises the sampler beyond the label symmetries that
    # force the m = 4 case
    alpha = "0"
    dist = exact_distribution(alpha, 6)
    rng = stream(8)
    ft = sample_ford_tree(alpha, 400, rng)
    n = 4000
    draws = ft.sample_distinct_leaves(n, 6, rng)
    counts = Counter(shape(ft, row.tolist()).key for row in draws)
    assert chisquare_pvalue(counts, dist.table, n) > CHI2_REJECT
