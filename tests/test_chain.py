import collections
import copy
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from alphaford._rng import stream
from alphaford.chain import (
    ChainState,
    DualityCheck,
    _beta_coefficients,
    _duality_samples,
    _move_tables,
    _rate_discrepancy,
    _shape_classes,
    _shape_indices,
    _stationarity_residual,
    _tilted_backward,
    backward_rate_matrix,
    beta_potential,
    estimate_shape_vector,
    exact_shape_vector,
    forward_rate_matrix,
    matrix_exponential,
    simulate_chain,
    verify_beta_is_rate_discrepancy,
    verify_chain_diffusion_duality,
    verify_feynman_kac,
    verify_invariance,
)
from alphaford.cladogram import (
    Cladogram,
    StructureError,
    _insert_split_leaf,
    _split_key,
    enumerate_cladograms,
    shape,
)
from alphaford.ford import _evaluate, _law, build_comb_tree, exact_distribution, sample_ford_tree
from alphaford.tree import FiniteMeasureTree

from conftest import bf_quartet_partner, chain_move, random_cladogram

ALPHAS = ["0", "1/4", "1/2", "1"]


# -- chain moves -----------------------------------------------------------------


def test_chain_move_at_merged_edge_is_identity():
    for t in enumerate_cladograms(5):
        for k in t.leaves:
            v = t.adjacency[k][0]
            a, b = (x for x in t.adjacency[v] if x != k)
            reduced = t.delete_leaf(k)
            merged = next(
                e for e in reduced.edges if chain_move(t, k, e) == t
            )
            # exactly one edge of the reduced tree reproduces t
            count = sum(1 for e in reduced.edges if chain_move(t, k, e) == t)
            assert count == 1
            del a, b, merged, v


def test_chain_move_produces_valid_states():
    t = enumerate_cladograms(6)[17]
    for k in (1, 4, 6):
        for e in t.delete_leaf(k).edges:
            got = chain_move(t, k, e)
            assert got.m == 6  # constructor validates the rest


def _edge_position(t: Cladogram, edge) -> int:
    """Where ``_insert_split_leaf`` lists ``edge`` of t: leaf j's edge at
    j - 2 (j >= 2), leaf 1's at m - 1, and an internal edge at m plus the
    index of its split, the labels it separates from label 1."""
    u, v = edge
    if v > 0:
        return v - 2 if v > 1 else t.m - 1
    side, todo, seen = 0, [u], {u, v}
    while todo:
        x = todo.pop()
        if x > 0:
            side |= 1 << x
        for w in t.adjacency[x]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    if side & 2:  # u's side holds label 1
        side ^= (1 << (t.m + 1)) - 2
    return t.m + t.splits.index(side)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_move_tables_match_cladogram_edits(m):
    """Split-mask moves and tables against moves built through chain_move:
    every (state, leaf, edge), the edge found in the rows of
    ``_insert_split_leaf`` (leaf edges 2..m - 1, leaf 1's edge, then the
    internal edges in row order), with the edge's class in the reduced tree
    and the leaf's cherry class, tallied per (src, tgt) pair."""
    states, smaller = enumerate_cladograms(m), enumerate_cladograms(m - 1)
    index = {t.key: i for i, t in enumerate(states)}
    reduced = states.deletions
    ref: dict[tuple[int, int], list[int]] = {}
    for s, t in enumerate(states):
        cherries = t.cherries()
        for k in t.leaves:
            r = t.delete_leaf(k)
            assert r.key == smaller[reduced[s, k - 1]].key
            rows = _insert_split_leaf(smaller.masks[reduced[s, k - 1], None], m - 1, k)[0]
            assert rows.shape == (2 * m - 5, m - 3)
            for e in r.edges:
                at = _edge_position(r, e)
                key, external = chain_move(t, k, e).key, e[0] > 0 or e[1] > 0
                assert key == _split_key(m, rows[at].tolist())
                assert external == (at < m - 1)
                tgt = index[key]
                if tgt != s:
                    counts = ref.setdefault((s, tgt), [0, 0, 0, 0])
                    counts[0 if external else 1] += 1
                    counts[2 if k in cherries else 3] += 1
    mt = _move_tables(m)
    assert forward_rate_matrix("0", m).states is states
    assert list(zip(mt.src.tolist(), mt.tgt.tolist())) == sorted(ref)
    columns = (mt.external, mt.internal, mt.cherry, mt.non_cherry)
    assert np.stack(columns, axis=1).tolist() == [ref[pair] for pair in sorted(ref)]
    assert all(c.dtype == np.int64 for c in columns)
    assert mt.n_cherries.tolist() == [len(t.cherries()) for t in states]


# -- rate matrices -----------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", [4, 5, 6])
def test_forward_total_rate_and_row_sums(alpha, m):
    fwd = forward_rate_matrix(alpha, m)
    assert all(r >= 0 for row in fwd.rows for r in row.values())
    assert all(r >= 0 for r in fwd.self_rates)
    af = Fraction(alpha)
    for s in range(len(fwd.states)):
        assert fwd.total_rate(s) == m * (m - 1 - 3 * af)
    dense = fwd.to_dense()
    assert np.abs(dense.sum(axis=1)).max() < 1e-12
    assert (dense - np.diag(np.diag(dense)) >= 0).all()


def test_forward_rate_m5_alpha0_total_twenty():
    fwd = forward_rate_matrix(0, 5)
    assert all(fwd.total_rate(s) == 20 for s in range(15))


def test_m4_matrix_shape_and_communication():
    fwd = forward_rate_matrix("1/4", 4)
    dense = fwd.to_dense()
    assert dense.shape == (3, 3)
    off = dense[~np.eye(3, dtype=bool)]
    assert (off > 0).all()  # all states communicate directly for alpha < 1


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", [4, 5, 6])
def test_reversal_identity(alpha, m):
    fwd = forward_rate_matrix(alpha, m)
    bwd = backward_rate_matrix(alpha, m)
    n = len(fwd.states)
    for s in range(n):
        for t, r in fwd.rows[s].items():
            assert bwd.rows[t].get(s, Fraction(0)) == r
    for t in range(n):
        for s, r in bwd.rows[t].items():
            assert fwd.rows[s].get(t, Fraction(0)) == r


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_reversal_identity_on_count_columns(m):
    # q_bwd(t, s) = q_fwd(s, t) at every alpha at once: the 1 - alpha and
    # alpha counts agree, external(s, t) = cherry(t, s) and
    # internal(s, t) = non_cherry(t, s)
    fwd, bwd = forward_rate_matrix(0, m), backward_rate_matrix(0, m)
    mt = fwd.tables
    reverse = np.lexsort((mt.src, mt.tgt))  # pair i's reverse sits at reverse[i]
    assert (mt.src[reverse] == mt.tgt).all() and (mt.tgt[reverse] == mt.src).all()
    for f, b in zip(fwd.counts, bwd.counts, strict=True):
        assert f.tolist() == b[reverse].tolist()


@pytest.mark.parametrize("kind", [forward_rate_matrix, backward_rate_matrix])
def test_rate_matrix_rejects_states_out_of_range(kind):
    q = kind("1/3", 5)
    assert len(q.states) == 15
    for s in (-1, 15, 18):
        with pytest.raises(IndexError):
            q.total_rate(s)
        with pytest.raises(IndexError):
            q.off_diagonal_total(s)
        with pytest.raises(IndexError):
            q.entry(s, s)
        with pytest.raises(IndexError):
            q.entry(s, 0)
        with pytest.raises(IndexError):
            q.entry(0, s)
    assert q.entry(14, 14) == -q.off_diagonal_total(14)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_backward_total_rate_formula(alpha):
    m = 6
    bwd = backward_rate_matrix(alpha, m)
    af = Fraction(alpha)
    for s, t in enumerate(bwd.states):
        ch = len(t.cherries())
        assert bwd.total_rate(s) == (2 * m - 5) * ((1 - af) * ch + af * (m - ch))


def test_alpha_half_backward_equals_forward():
    fwd = forward_rate_matrix("1/2", 5)
    bwd = backward_rate_matrix("1/2", 5)
    assert fwd.rows == bwd.rows
    q = fwd.to_dense()
    assert np.abs(q - q.T).max() == 0


# -- potential ---------------------------------------------------------------------


def test_beta_zero_at_m4():
    beta = beta_potential("1/4", 4)
    assert all(v == 0 for v in beta.values())


def test_beta_m6_caterpillar_and_balanced():
    beta = beta_potential(0, 6)
    cat = build_comb_tree(6).topology
    assert beta[cat.key] == 4 * 7 - 30 == -2
    balanced = Cladogram(
        6,
        [(1, -1), (2, -1), (3, -2), (4, -2), (5, -3), (6, -3), (-1, -4), (-2, -4), (-3, -4)],
    )
    assert beta[balanced.key] == 6 * 7 - 30 == 12


def test_beta_vanishes_at_half():
    assert all(v == 0 for v in beta_potential("1/2", 6).values())


@pytest.mark.parametrize("alpha", ALPHAS + ["1/3"])
@pytest.mark.parametrize("m", [4, 5, 6])
def test_beta_is_rate_discrepancy(alpha, m):
    assert verify_beta_is_rate_discrepancy(alpha, m)


# -- invariance ---------------------------------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", [4, 5, 6])
def test_invariance_exact(alpha, m):
    assert verify_invariance(alpha, m) == 0


def _raw_forward_moves(m):
    """The forward chain's q_raw: the non-self moves, then one self-move row
    per state, as (src, tgt, external count, internal count)."""
    mt = _move_tables(m)
    diag = np.arange(len(enumerate_cladograms(m)))
    return (
        np.concatenate([mt.src, diag]),
        np.concatenate([mt.tgt, diag]),
        np.concatenate([mt.external, mt.n_cherries]),
        np.concatenate([mt.internal, m - mt.n_cherries]),
    )


@pytest.mark.parametrize("m", [5, 6, 7])
def test_stationarity_residual_fails_on_wrong_rates(m):
    num = _law(m)[0]
    src, tgt, ext, inner = _raw_forward_moves(m)
    assert not _stationarity_residual(m, num, src, tgt, ext, inner).any()
    # the two forward classes weighted the wrong way round
    assert _stationarity_residual(m, num, src, tgt, inner, ext).any()
    # the self-moves left out of q_raw
    mt = _move_tables(m)
    dropped = _stationarity_residual(m, num, mt.src, mt.tgt, mt.external, mt.internal)
    assert all(any(_evaluate(dropped, Fraction(a))) for a in ALPHAS)


def test_stationarity_residual_fails_on_the_uniform_law_at_alpha_zero():
    m = 6
    uniform = np.ones((len(enumerate_cladograms(m)), 1), dtype=np.int64)
    residual = _stationarity_residual(m, uniform, *_raw_forward_moves(m))
    assert any(_evaluate(residual, Fraction(0)))
    assert not any(_evaluate(residual, Fraction(1, 2)))  # the uniform law is stationary at 1/2


@pytest.mark.parametrize("m", [5, 6, 7])
def test_rate_discrepancy_fails_on_a_wrong_potential(m):
    mt = _move_tables(m)
    assert not _rate_discrepancy(mt, _beta_coefficients(m, mt.n_cherries)).any()
    base = mt.n_cherries * (2 * m - 4) - m * (m - 1)  # 2m - 5 off by one
    residual = _rate_discrepancy(mt, np.stack([base, -2 * base], axis=1))
    assert any(_evaluate(residual, Fraction(1, 3)))


def test_m4_uniform_is_stationary():
    # symmetry of the 3-state chain; also pi Q = 0 in floats
    fwd = forward_rate_matrix("3/4", 4)
    pi = np.full(3, 1 / 3)
    assert np.abs(pi @ fwd.to_dense()).max() < 1e-12


class _NoDraws:
    """A generator that fails the test if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


@pytest.mark.parametrize("m", [5.0, 5.5, True, "5"])
def test_chain_leaf_count_must_be_an_integer(m):
    caches = (_move_tables, _law, _shape_classes)
    cached = [f.cache_info().currsize for f in caches]
    tree = build_comb_tree(8)
    calls = [
        *(lambda f=f: f("1/3", m) for f in (
            forward_rate_matrix, backward_rate_matrix, beta_potential,
            verify_beta_is_rate_discrepancy, verify_invariance,
        )),
        lambda: verify_feynman_kac("1/3", m, 0.5),
        lambda: estimate_shape_vector(tree, m, 10, _NoDraws()),
        lambda: exact_shape_vector(tree, m),
        lambda: verify_chain_diffusion_duality("1/3", m, 8, 0.5, 2, initial=tree),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="leaf count must be an integer"):
            call()
    assert [f.cache_info().currsize for f in caches] == cached


def test_chain_reads_numpy_leaf_counts_as_ints():
    q = forward_rate_matrix("1/3", np.int64(5))
    assert type(q.m) is int and q.tables is _move_tables(5)
    assert exact_shape_vector(build_comb_tree(8), np.int64(6)) == exact_shape_vector(
        build_comb_tree(8), 6
    )


# -- matrix exponential ---------------------------------------------------------------


def test_expm_zero_time_is_identity():
    q = forward_rate_matrix(0, 5).to_dense()
    assert np.allclose(matrix_exponential(q, 0.0), np.eye(15), atol=1e-14)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_expm_generator_rows_sum_to_one(t):
    q = forward_rate_matrix("1/4", 5).to_dense()
    p = matrix_exponential(q, t)
    assert np.abs(p.sum(axis=1) - 1).max() < 1e-10
    assert p.min() > -1e-12


def test_expm_diagonal_case():
    got = matrix_exponential(np.diag([1.0, -2.0]), 0.7)
    assert np.allclose(got, np.diag([math.exp(0.7), math.exp(-1.4)]), rtol=1e-12)


def test_expm_guards():
    with pytest.raises(ValueError):
        matrix_exponential(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matrix_exponential(np.full((2, 2), np.nan))
    q = forward_rate_matrix(0, 4).to_dense()
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            matrix_exponential(q, t)
    with pytest.raises(ValueError, match="overflows"):
        matrix_exponential(q, 1e308)
    with pytest.raises(ValueError, match="overflows"):  # finite entries, infinite 1-norm
        matrix_exponential(np.ones((2, 2)), 1e308)


# 1-norm bounds of the Pade degrees 3, 5, 7, 9 and 13 (Higham 2005).
# matrix_exponential uses degree 13 alone, scaled by 2^-s for norms above
# theta_13; the lower entries only set the norms of small-norm probes, at
# which Higham's full algorithm would pick a lower degree.
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}


def _expm_case(case):
    """The matrix of a reference case and its exponential: scipy's for the
    generators and the seeded random matrices, a closed form for a rotation
    generator and a 2x2 Jordan block."""
    from scipy.linalg import expm

    kind, arg, *rest = case.split(":")
    if kind == "rotation":
        x = float(Fraction(arg))
        c, s = math.cos(x), math.sin(x)
        return np.array([[0.0, x], [-x, 0.0]]), np.array([[c, s], [-s, c]])
    if kind == "jordan":
        x = float(Fraction(arg))
        return np.array([[x, 1.0], [0.0, x]]), math.exp(x) * np.array([[1.0, 1.0], [0.0, 1.0]])
    if kind == "fwd":  # at t = 1/2 unless a time follows
        t = float(Fraction(rest[1])) if len(rest) > 1 else 0.5
        a = t * forward_rate_matrix(rest[0], int(arg)).to_dense()
    elif kind == "bwd":
        a = 0.5 * _tilted_backward(Fraction(rest[0]), int(arg))
    elif kind == "norm":  # seeded, nonnegative, every column summing to arg:
        # its spectral radius is its 1-norm, so every Pade term weighs in
        a = np.abs(np.random.default_rng(13).standard_normal((12, 12)))
        a *= float(arg) / a.sum(axis=0)
    else:  # random: 1-norm just under theta_q, or 12 theta_13 (4 squarings)
        q = int(arg)
        a = np.random.default_rng(q).standard_normal((12, 12))
        a *= (0.99 if q < 13 else 12) * _THETA[q] / np.abs(a).sum(axis=0).max()
    return a, expm(a)


@pytest.mark.parametrize(
    "case",
    [
        # every generator the package exponentiates, at t = 1/2 (up to 3 squarings)
        *(f"{kind}:{m}:{a}" for kind in ("fwd", "bwd") for m in (4, 5, 6, 7) for a in ALPHAS),
        *(f"random:{q}" for q in _THETA),
        # tiny norms, and 1-norms just below and just above theta_13 (s = 0, s = 1)
        *(f"norm:{x:.6g}" for x in (1e-8, 1e-3, 0.999 * _THETA[13], 1.001 * _THETA[13])),
        *(f"fwd:7:{a}:1/100" for a in ("0", "1/3")),  # the 945-state generator, unscaled
        *(f"rotation:{x}" for x in ("1/100", "1/5", "9/10", "2", "5", "40")),
        *(f"jordan:{x}" for x in ("-1", "1/100", "2", "39")),
    ],
)
def test_expm_matches_reference(case):
    a, expected = _expm_case(case)
    got = matrix_exponential(a)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


# -- Feynman-Kac ---------------------------------------------------------------------


def test_feynman_kac_m4_tight():
    assert verify_feynman_kac("1/4", 4, 1.0) < 1e-10


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m", [4, 5])
def test_feynman_kac_small(alpha, m):
    assert verify_feynman_kac(alpha, m, 0.5) < 1e-8


@pytest.mark.parametrize("alpha", ALPHAS + ["1/3", "2/7"])
def test_tilted_backward_reads_beta_by_state_position(alpha):
    # the diagonal adds beta, rounded once from its exact value, in state order
    m = 6
    qb = backward_rate_matrix(alpha, m).to_dense()
    beta = [float(b) for b in beta_potential(alpha, m).values()]
    tilted = _tilted_backward(Fraction(alpha), m)
    assert np.diag(tilted).tolist() == (np.diag(qb) + beta).tolist()
    assert (tilted - np.diag(np.diag(tilted)) == qb - np.diag(np.diag(qb))).all()


def test_feynman_kac_exact_matrix_identity():
    # Q_fwd^T equals Q_bwd + diag(beta) entry by entry, exactly
    for alpha in ("0", "1/3", "1"):
        m = 5
        fwd = forward_rate_matrix(alpha, m)
        bwd = backward_rate_matrix(alpha, m)
        beta = beta_potential(alpha, m)
        n = len(fwd.states)
        for s in range(n):
            for t in range(n):
                lhs = fwd.entry(t, s)
                rhs = bwd.entry(s, t) + (beta[fwd.states[s].key] if s == t else 0)
                assert lhs == rhs, (alpha, s, t)


# -- simulator ---------------------------------------------------------------------


def test_chain_state_requires_five_leaves():
    with pytest.raises(StructureError):
        ChainState(build_comb_tree(4), "1/2", stream(0))


def test_simulator_preserves_invariants():
    state = ChainState(sample_ford_tree("1/2", 30, stream(12)), "1/2", stream(13))
    for _ in range(200):
        state.move()
    state.audit()
    for _ in range(5):
        state.run_until(state.time + 0.2)
        state.audit()


def test_simulator_jump_count_concentration():
    n, alpha, horizon = 40, 0.25, 3.0
    state = ChainState(sample_ford_tree("1/4", n, stream(14)), "1/4", stream(15))
    state.run_until(horizon)
    expected = horizon * n * (n - 1 - 3 * alpha)
    assert abs(state.jumps - expected) < 6 * math.sqrt(expected)


def test_simulator_million_moves_audit():
    state = ChainState(sample_ford_tree("1/3", 64, stream(29)), "1/3", stream(30))
    for _ in range(10):
        for _ in range(100_000):
            state.move()
        state.audit()


def test_simulator_self_moves_leave_state_unchanged():
    state = ChainState(build_comb_tree(8), "0", stream(16))
    moved = []
    for _ in range(300):
        before = state.as_tree().topology.key
        moved.append(state.move())
        # a self-move keeps the labeled tree, every other move changes it
        assert (state.as_tree().topology.key != before) == moved[-1]
    assert any(moved) and not all(moved)
    assert state.self_moves == moved.count(False)
    state.audit()


@pytest.mark.parametrize("alpha", ["0", "1/3", "1"])
def test_run_until_self_move_fraction_at_five_leaves(alpha):
    # every 5-leaf tree has 4 cherry leaves, so from every state a fraction
    # ((1 - a) 4 + a) / (5 (4 - 3a)) = 1/5 of the events are self-moves
    state = ChainState(build_comb_tree(5), alpha, stream(42, JUMP_ALPHAS.index(alpha)))
    events = state.run_until(50_000 / state.total_rate)
    frac = state.self_moves / events
    assert abs(frac - 0.2) < 5 * math.sqrt(0.2 * 0.8 / events)
    state.audit()


def test_as_tree_validates_the_slot_table():
    # leaf 1's edge (0, v) and an edge (v, a) swap endpoints into (0, a) and
    # a loop at v: every degree stays, the graph splits in two.  A slot
    # copied over another leaves a vertex with the wrong degree.  The array
    # path raises what the pair path raises.
    state = ChainState(sample_ford_tree("1/3", 12, stream(43)), "1/3", stream(44))
    state.run_until(0.2)
    for corrupt in ("swap", "copy"):
        bad = ChainState(state.as_tree(), "1/3", stream(45))
        v = bad.ends[0][1]
        e = next(e for e in bad.inc[v] if e != 0)
        if corrupt == "swap":
            bad.ends[0], bad.ends[e] = (0, sum(bad.ends[e]) - v), (v, v)
        else:
            bad.ends[e] = bad.ends[0]
        label = [*range(1, 13), *range(-1, -11, -1)]
        with pytest.raises(StructureError) as pairs:
            Cladogram(12, [(label[u], label[w]) for u, w in bad.ends])
        with pytest.raises(StructureError, match=re.escape(str(pairs.value))):
            bad.as_tree()


# start trees of the move-kernel oracle: combs, a caterpillar whose labels
# do not run along the spine, the three-cherry tree, and seeded Ford trees
KERNEL_STARTS = {
    **{f"comb{n}": (lambda n=n: build_comb_tree(n)) for n in (5, 6, 7, 8)},
    "caterpillar7": lambda: FiniteMeasureTree.from_newick("((3,7),1,(5,(2,(4,6))));"),
    "three_cherries6": lambda: FiniteMeasureTree.from_newick("((1,2),(3,4),(5,6));"),
    **{
        f"ford{n}_{alpha}": (lambda n=n, alpha=alpha: sample_ford_tree(alpha, n, stream(47, n)))
        for n in (6, 7, 8)
        for alpha in ("0", "1/2")
    },
}


@pytest.mark.parametrize("start", KERNEL_STARTS)
def test_move_kernel_matches_cladogram_edits(start):
    # every leaf k and every slot index z the kernel can be handed, each on a
    # fresh state: per class of the insertion edge, the trees reached are the
    # trees the edits reach over the reduced tree's edges of that class, as
    # multisets; one z per leaf, a slot k's vertex held, is the self-move
    tree = KERNEL_STARTS[start]()
    t, n = tree.topology, tree.n
    for k in range(n):
        reduced = t.delete_leaf(k + 1)
        expected = {True: collections.Counter(), False: collections.Counter()}
        for edge in reduced.edges:
            expected[edge[1] > 0][chain_move(t, k + 1, edge)] += 1
        assert sum(expected[True].values()) == n - 1
        reached = {True: collections.Counter(), False: collections.Counter()}
        stays = []
        for z in [*range(k), *range(k + 1, n), *range(n, 2 * n - 4)]:
            state = ChainState(tree, "1/2", stream(48))
            at_v = set(state.inc[state.ends[k][1]])
            stayed = state._steps([k], [z])
            state.audit()
            got = state.as_tree().topology
            reached[z < n][got] += 1
            assert (got == t) == bool(stayed)
            if stayed:
                stays.append(z)
                assert z in at_v - {k}
        assert len(stays) == 1
        assert reached == expected


def test_simulate_chain_rejects_observation_times_past_the_horizon(monkeypatch):
    state = ChainState(sample_ford_tree("1/2", 20, stream(49)), "1/2", stream(50))
    twin = copy.deepcopy(state.rng)
    monkeypatch.setattr(state, "_steps", _no_step)
    with pytest.raises(ValueError, match="horizon"):
        simulate_chain(state, 1.0, observe_times=[0.5, 2.0])
    assert (state.time, state.jumps) == (0.0, 0)
    assert state.rng.random() == twin.random()  # nothing was drawn


JUMP_ALPHAS = ["0", "1/3", "1"]
# leaves in cherries at the start: a caterpillar (two cherries) at 5 and 7
# leaves, the three-cherry tree at 6; in a caterpillar the middle leaves hang
# off vertices with two internal neighbours
JUMP_START_CHERRY_LEAVES = {5: 4, 6: 6, 7: 4}


@pytest.mark.parametrize("alpha", JUMP_ALPHAS)
@pytest.mark.parametrize("n", [5, 6, 7])
def test_simulator_one_step_law_matches_rate_row(alpha, n):
    # one move() from a fixed state lands on t with probability
    # q_fwd(s, t) / total rate, and stays at s with the self-move rate
    fwd = forward_rate_matrix(alpha, n)
    cherry_leaves = JUMP_START_CHERRY_LEAVES[n]
    s = next(i for i, t in enumerate(fwd.states) if len(t.cherries()) == cherry_leaves)
    start = FiniteMeasureTree(fwd.states[s])
    index = {t.key: i for i, t in enumerate(fwd.states)}
    rng = stream(31, n, JUMP_ALPHAS.index(alpha))
    moves = 20_000
    tally = {}
    for _ in range(moves):
        state = ChainState(start, alpha, rng)
        state.move()
        t = index[state.as_tree().topology.key]
        tally[t] = tally.get(t, 0) + 1
    total = fwd.total_rate(s)
    law = {t: r / total for t, r in fwd.rows[s].items() if r}
    if fwd.self_rates[s]:
        law[s] = fwd.self_rates[s] / total
    assert sum(law.values()) == 1
    assert set(tally) <= set(law), "move() reached a state the rate row forbids"
    targets = sorted(law)
    observed = [tally.get(t, 0) for t in targets]
    expected = [float(law[t]) * moves for t in targets]
    assert chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("alpha", JUMP_ALPHAS)
@pytest.mark.parametrize("n", [5, 6])
def test_simulator_time_t_law_matches_expm(alpha, n):
    # run_until(t) from a fixed state s lands on u with probability
    # exp(t Q_fwd)[s, u]; the bins expected below 5 are lumped into one
    fwd = forward_rate_matrix(alpha, n)
    cherry_leaves = JUMP_START_CHERRY_LEAVES[n]
    s = next(i for i, t in enumerate(fwd.states) if len(t.cherries()) == cherry_leaves)
    start = FiniteMeasureTree(fwd.states[s])
    index = {t.key: i for i, t in enumerate(fwd.states)}
    rng = stream(32, n, JUMP_ALPHAS.index(alpha))
    runs, horizon = 10_000, 0.1
    tally = np.zeros(len(fwd.states))
    for _ in range(runs):
        state = ChainState(start, alpha, rng)
        state.run_until(horizon)
        tally[index[state.as_tree().topology.key]] += 1
    law = runs * matrix_exponential(fwd.to_dense(), horizon)[s]
    small = law < 5
    observed, expected = [*tally[~small]], [*law[~small]]
    if small.any():
        observed.append(tally[small].sum())
        expected.append(law[small].sum())
    assert chisquare(observed, expected).pvalue > 1e-3


def _no_step(*args):
    raise AssertionError("run_until moved")


@pytest.mark.parametrize("horizon", [0.5, math.nan, math.inf])
def test_run_until_rejects_bad_horizon_before_drawing(monkeypatch, horizon):
    # an earlier horizon would rewind the clock; nan and inf would never end
    state = ChainState(sample_ford_tree("1/2", 20, stream(40)), "1/2", stream(41))
    taken = state.run_until(1.0)
    assert taken == state.jumps > 0 and state.run_until(1.0) == 0
    twin = copy.deepcopy(state.rng)
    monkeypatch.setattr(state, "_steps", _no_step)
    with pytest.raises(ValueError, match="horizon"):
        state.run_until(horizon)
    assert (state.time, state.jumps) == (1.0, taken)
    assert state.rng.random() == twin.random()  # nothing was drawn


def test_simulate_chain_observers():
    state = ChainState(sample_ford_tree("1/2", 20, stream(17)), "1/2", stream(18))
    summary = simulate_chain(
        state,
        horizon=1.0,
        observe_times=[0.25, 0.5],
        observers=[lambda s: s.time, lambda s: s.jumps],
    )
    assert [t for t, _ in summary["observations"]] == [0.25, 0.5, 1.0]
    assert all(seen_time == t for t, (seen_time, _) in summary["observations"])
    jumps = [seen_jumps for _, (_, seen_jumps) in summary["observations"]]
    assert jumps == sorted(jumps) and jumps[-1] == state.jumps
    assert summary["jumps"] == state.jumps


def test_long_run_shape_frequencies_reach_uniform():
    # N = 50, alpha = 1/2: after a burn-in the m = 4 sample-shape estimates sit
    # at 1/3 each (they do for every binary tree; this catches simulator bias)
    state = ChainState(sample_ford_tree("1/2", 50, stream(19)), "1/2", stream(20))
    state.run_until(2.0)
    tree = state.as_tree()
    rng = stream(21)
    for i in range(3):
        est, se = estimated_fraction(tree, 4, i, 40000, rng)
        expect = (49 / 50) * (48 / 50) * (47 / 50) / 3
        assert abs(est - expect) < 3 * se + 1e-12


# -- shape polynomial estimation ------------------------------------------------------


def estimated_fraction(tree, m, i, samples, rng):
    """Fraction of ``samples`` iid leaf m-tuples spanning state i, with its
    binomial standard error."""
    p = float(estimate_shape_vector(tree, m, samples, rng)[0][i])
    return p, math.sqrt(p * (1 - p) / samples)


def exhaustive_shape_polynomial(tree: FiniteMeasureTree, target: Cladogram) -> Fraction:
    """Sum over all ordered leaf m-tuples (the defining integral, verbatim)."""
    n, m = tree.n, target.m
    hits = 0
    for tup in itertools.product(range(1, n + 1), repeat=m):
        if len(set(tup)) != m:
            continue
        if m == 3:
            hits += 1
            continue
        code = bf_quartet_partner(tree.topology, *tup)
        partner_of_one = {1: 2, 2: 3, 3: 4}[code]
        v = target.adjacency[1][0]
        target_partner = next(x for x in target.adjacency[v] if x > 0 and x != 1)
        hits += partner_of_one == target_partner
    return Fraction(hits, n**m)


def test_shape_polynomial_m3_exact_count():
    t3 = enumerate_cladograms(3)[0]
    for n in (5, 9, 30):
        ft = build_comb_tree(n)
        exact = Fraction(n * (n - 1) * (n - 2), n**3)
        assert exhaustive_shape_polynomial(ft, t3) == exact if n <= 9 else True
        est, se = estimated_fraction(ft, 3, 0, 20000, stream(22))
        assert abs(est - float(exact)) < 4 * se + 1e-12


def test_shape_polynomial_m4_exhaustive_oracle():
    ft = FiniteMeasureTree(Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)]))
    for i, target in enumerate(enumerate_cladograms(4)):
        exact = exhaustive_shape_polynomial(ft, target)
        est, se = estimated_fraction(ft, 4, i, 60000, stream(23))
        assert abs(est - float(exact)) < 4 * se + 1e-12
    match = Cladogram(4, [(1, -1), (2, -1), (3, -2), (4, -2), (-1, -2)])
    assert exhaustive_shape_polynomial(ft, match) == Fraction(8, 256)


def test_shape_polynomial_sum_is_distinct_probability():
    ft = build_comb_tree(12)
    rng = stream(24)
    total = sum(estimated_fraction(ft, 4, i, 30000, rng)[0] for i in range(3))
    p_distinct = (11 / 12) * (10 / 12) * (9 / 12)
    assert abs(total - p_distinct) < 0.02


@pytest.mark.parametrize("m", range(2, 9))
def test_shape_classifier_matches_shape(m):
    states = enumerate_cladograms(m)
    index = {t.key: i for i, t in enumerate(states)}
    trees = [
        sample_ford_tree("0", 40, stream(32)),
        sample_ford_tree("1/2", 40, stream(33)),
        build_comb_tree(40),
    ]
    for i, tree in enumerate(trees):
        tuples = tree.sample_distinct_leaves(150, m, stream(34, m, i))
        got = _shape_indices(tree, tuples).tolist()
        assert got == [index[shape(tree, row.tolist()).key] for row in tuples]


def brute_force_shape_vector(tree: FiniteMeasureTree, m: int) -> list[Fraction]:
    """Phi^m by its definition: every ordered m-tuple of distinct leaves,
    classified by its quartet codes, out of all N^m tuples."""
    tuples = np.array(list(itertools.permutations(tree.leaf_ids, m)))
    counts = np.bincount(_shape_indices(tree, tuples), minlength=len(enumerate_cladograms(m)))
    return [Fraction(int(c), tree.n**m) for c in counts]


@pytest.mark.parametrize("m", range(2, 8))
def test_exact_shape_vector_matches_brute_force(m):
    # two 8-leaf Ford trees with three cherries each, and the 8-leaf comb
    trees = [
        sample_ford_tree("0", 8, stream(35)),
        sample_ford_tree("1/2", 8, stream(38)),
        build_comb_tree(8),
    ]
    assert [len(t.topology.cherries()) for t in trees] == [6, 6, 4]
    for tree in trees:
        assert exact_shape_vector(tree, m) == brute_force_shape_vector(tree, m)


@pytest.mark.parametrize("m", range(2, 9))
def test_exact_shape_vector_sums_to_distinct_probability(m):
    tree = sample_ford_tree("1/2", 128, stream(39))
    assert sum(exact_shape_vector(tree, m)) == Fraction(math.perm(128, m), 128**m)


def test_exact_shape_vector_depends_on_the_tree_from_six_leaves():
    # up to 5 leaves every cladogram has the same unlabeled shape; at 6 the
    # comb spans no three-cherry ("snowflake") state and a Yule tree does
    comb = build_comb_tree(128)
    yule = sample_ford_tree("0", 128, stream(40))
    for m in range(2, 6):
        assert exact_shape_vector(comb, m) == exact_shape_vector(yule, m)
    snowflake = [len(t.cherries()) == 6 for t in enumerate_cladograms(6)]
    comb6, yule6 = exact_shape_vector(comb, 6), exact_shape_vector(yule, 6)
    assert all(p == 0 for p, s in zip(comb6, snowflake) if s)
    assert all(p > 0 for p, s in zip(yule6, snowflake) if s)
    assert all(p != q for p, q in zip(comb6, yule6))


@pytest.mark.parametrize("n", [5, 6, 9, 128])
def test_exact_shape_vector_of_chain_state_matches_its_snapshot(n):
    # the chain's slot DFS and the snapshot's stored preorder feed the same fold
    for alpha, t in itertools.product(["0", "1/2", "1"], [0, 0.05, 0.3]):
        state = ChainState(sample_ford_tree(alpha, n, stream(42, n)), alpha, stream(43, n))
        state.run_until(t)
        tree = state.as_tree()
        for m in range(2, 9):
            assert exact_shape_vector(state, m) == exact_shape_vector(tree, m)


def test_exact_shape_vector_builds_no_tree_index(monkeypatch):
    # the fold reads the topology's stored preorder, not the LCA index
    def no_index(tree):
        raise AssertionError("read tree.index")

    tree = sample_ford_tree("1/2", 64, stream(44))
    monkeypatch.setattr(FiniteMeasureTree, "index", property(no_index))
    for m in range(2, 9):
        assert sum(exact_shape_vector(tree, m)) == Fraction(math.perm(64, m), 64**m)


def test_exact_shape_vector_of_a_deep_big_tree_sums_exactly():
    # alpha = 1 grows a comb-like tree of depth ~1e5; its 6-subset counts
    # pass 2^63, and its fold stack must not recurse
    n = 100_000
    tree = sample_ford_tree("1", n, stream(45))
    assert sum(exact_shape_vector(tree, 6)) == Fraction(math.perm(n, 6), n**6)


@pytest.mark.parametrize("n", [2, 3])
def test_exact_shape_vector_of_two_and_three_leaves(n):
    # leaf 1's neighbour is a leaf (n = 2) or the one internal vertex (n = 3);
    # the m-cladograms of m <= 3 form one state, and more leaves than n span none
    tree = build_comb_tree(n)
    for m in range(2, 9):
        expected = Fraction(math.perm(n, m), n**m)
        assert exact_shape_vector(tree, m) == [expected] * len(enumerate_cladograms(m))


@pytest.mark.parametrize("n", [5, 9, 128])
def test_chain_state_preorder_is_a_preorder_from_leaf_one(n):
    for alpha, t in itertools.product(["0", "1"], [0, 0.3]):
        state = ChainState(sample_ford_tree(alpha, n, stream(46, n)), alpha, stream(47, n))
        state.run_until(t)
        order = state.preorder()
        assert order[0] == 0
        assert sorted(order) == list(range(2 * n - 2))
        # each vertex's parent is the previous vertex or one of its
        # ancestors: every subtree follows its root, unbroken
        idx = state.as_tree().index
        assert idx.is_ancestor(idx.parent[order[1:]], np.array(order[:-1])).all()


def test_exact_shape_vector_rejects_m_out_of_range():
    for m in (1, 9):
        with pytest.raises(StructureError):
            exact_shape_vector(build_comb_tree(10), m)


@pytest.mark.parametrize("m, samples", [(6, 40_000), (7, 40_000), (8, 100_000)])
def test_estimate_shape_vector_chi_square_against_exact(m, samples):
    tree = sample_ford_tree("1/2", 128, stream(36))
    exact = np.array([float(p) for p in exact_shape_vector(tree, m)])
    _, counts = estimate_shape_vector(tree, m, samples, stream(37, m))
    # the last bin holds the tuples with a repeated leaf; states expected
    # fewer than 5 times are pooled into one bin
    observed = np.append(counts, samples - counts.sum())
    expected = samples * np.append(exact, 1 - exact.sum())
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    assert chisquare(observed, expected).pvalue > 1e-3


def test_shape_polynomial_generic_path_m5():
    ft = build_comb_tree(10)
    est, se = estimated_fraction(ft, 5, 0, 2000, stream(25))
    assert 0 <= est <= 1 and se >= 0


# -- chain-vs-dual duality -------------------------------------------------------------


def test_duality_time_zero_matches_initial_polynomials():
    checks = verify_chain_diffusion_duality("1/2", 4, 64, 0.0, replicates=40, seed=26)
    for c in checks:
        assert abs(c.lhs - c.rhs) < 4 * c.lhs_se + 1e-9


@pytest.mark.parametrize("alpha", ["0", "1/2"])
def test_duality_small(alpha):
    checks = verify_chain_diffusion_duality(alpha, 4, 64, 0.05, replicates=400, seed=27)
    for c in checks:
        assert abs(c.z_score) < 4


def test_duality_m5():
    # the finite-size generator gap is O(1/N), far below Monte Carlo noise at
    # these sizes
    checks = verify_chain_diffusion_duality("1/2", 5, 128, 0.05, replicates=150, seed=28)
    assert len(checks) == 15
    for c in checks:
        assert abs(c.z_score) < 4


def test_duality_rejects_large_m():
    # the rate matrices bound the check to 4 <= m <= 7
    for m in (3, 8):
        with pytest.raises(StructureError):
            verify_chain_diffusion_duality("1/2", m, 64, 0.05, replicates=10)


def test_z_score_with_zero_standard_errors():
    checks = verify_chain_diffusion_duality(
        "0", 6, 16, 0.0, replicates=3, seed=1, initial=build_comb_tree(16)
    )
    silent = [c for c in checks if c.lhs_se == 0]
    assert silent
    assert all(c.z_score == (0.0 if c.lhs == c.rhs else math.inf * (c.lhs - c.rhs)) for c in silent)
    assert DualityCheck((), 0.25, 0.0, 0.0).z_score == math.inf
    assert DualityCheck((), 0.0, 0.0, 0.25).z_score == -math.inf
    assert DualityCheck((), 0.25, 0.0, 0.25).z_score == 0.0
    assert DualityCheck((), 0.25, 0.05, 0.1).z_score == pytest.approx(3.0)


def _no_chain(*args):
    raise AssertionError("a chain was started")


@pytest.mark.parametrize(
    "t, replicates", [(0.05, 1), (0.05, 0), (-0.1, 10), (math.nan, 10), (math.inf, 10)]
)
def test_duality_rejects_bad_replicates_and_time(monkeypatch, t, replicates):
    monkeypatch.setattr("alphaford.chain.ChainState", _no_chain)
    with pytest.raises(ValueError):
        verify_chain_diffusion_duality("1/2", 4, 64, t, replicates=replicates)


def _no_sample(*args):
    raise AssertionError("a tree was sampled")


@pytest.mark.parametrize("initial", [None, build_comb_tree(5)])
def test_duality_rejects_fewer_leaves_than_m(monkeypatch, initial):
    # a 5-leaf tree spans no 6-leaf shape: every Phi^6 is 0, and both sides would agree at 0
    monkeypatch.setattr("alphaford.chain.ChainState", _no_chain)
    monkeypatch.setattr("alphaford.chain.sample_ford_tree", _no_sample)
    with pytest.raises(ValueError, match="n_leaves >= m"):
        verify_chain_diffusion_duality("1/2", 6, 5, 0.05, replicates=50, initial=initial)


def test_duality_rejects_initial_tree_of_other_size(monkeypatch):
    monkeypatch.setattr("alphaford.chain.ChainState", _no_chain)
    with pytest.raises(ValueError, match="8 leaves, not n_leaves=999"):
        verify_chain_diffusion_duality("0", 4, 999, 0.05, replicates=10, initial=build_comb_tree(8))


@pytest.mark.parametrize("samples", [0, -1])
def test_estimate_shape_vector_rejects_no_samples(samples):
    with pytest.raises(ValueError):
        estimate_shape_vector(build_comb_tree(8), 4, samples, stream(0))


@pytest.mark.parametrize("m", [-1, 1, 9])
def test_estimate_shape_vector_rejects_m_before_drawing(m):
    rng, untouched = stream(0), stream(0)
    with pytest.raises(StructureError):
        estimate_shape_vector(build_comb_tree(10), m, 100, rng)
    assert rng.integers(1 << 62) == untouched.integers(1 << 62)


def test_feynman_kac_rejects_negative_time():
    with pytest.raises(ValueError):
        verify_feynman_kac(0, 5, -1)


@pytest.mark.parametrize("alpha", ["0", "1/2"])
def test_duality_m6_snowflake_fraction(alpha):
    # Every 6-leaf subtree of a comb is a caterpillar, so the summed fraction
    # of the 15 three-cherry ("snowflake") states is 0 at t = 0.  Unlike the
    # m = 4, 5 vectors, this observable depends on the tree, so it tests the
    # simulator's dynamics against the dual.
    replicates = 1000
    est, mat, phi0 = _duality_samples(alpha, 6, 64, 0.05, replicates, 41, build_comb_tree(64))
    w = np.array([len(t.cherries()) == 6 for t in enumerate_cladograms(6)], dtype=float)
    assert w.sum() == 15 and w @ phi0 == 0
    per_replicate = est @ w
    lhs = per_replicate.mean()
    lhs_se = per_replicate.std(ddof=1) / math.sqrt(replicates)
    rhs = w @ mat @ phi0
    assert rhs > 0.05
    assert abs(lhs - rhs) < 4 * lhs_se
