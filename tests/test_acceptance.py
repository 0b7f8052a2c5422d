"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed, documented seeds so the whole suite is deterministic; every tolerance
and runtime budget is pinned here.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from alphaford._rng import stream
from alphaford.chain import (
    ChainState,
    backward_rate_matrix,
    beta_potential,
    exact_shape_vector,
    forward_rate_matrix,
    matrix_exponential,
    simulate_chain,
    verify_beta_is_rate_discrepancy,
    verify_chain_diffusion_duality,
    verify_feynman_kac,
)
from alphaford.cladogram import enumerate_cladograms
from alphaford.ford import (
    build_comb_tree,
    deletion_stability_check,
    exact_distribution,
    sample_ford_tree,
    sample_kingman_cladogram,
)
from alphaford.moments import (
    comb_moment,
    crt_dirichlet_moment,
    estimate_mass_moments,
    kingman_beta_moment,
    kingman_closed_form,
    kingman_univariate,
    moment,
)

ALPHA_GRID_6 = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
ALPHA_GRID_4 = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def _report(name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_universal_low_moments():
    t0 = time.perf_counter()
    ok = all(
        moment(a, (1, 0, 0)) == Fraction(1, 3)
        and moment(a, (2, 0, 0)) == Fraction(1, 5)
        and moment(a, (1, 1, 0)) == Fraction(1, 15)
        for a in ALPHA_GRID_6
    )
    _report("criterion-01 universal low moments", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_closed_moment_formulas():
    t0 = time.perf_counter()
    ok = all(
        moment(a, (3, 0, 0)) == (11 - 7 * a) / (15 * (5 - 3 * a))
        and moment(a, (4, 0, 0)) == (37 - 25 * a) / (63 * (5 - 3 * a))
        and moment(a, (5, 0, 0)) == (145 - 165 * a + 44 * a**2) / (42 * (5 - 3 * a) * (7 - 3 * a))
        for a in ALPHA_GRID_6
    )
    _report("criterion-02 degree 3-5 moment formulas", ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_alpha_zero_closed_forms():
    t0 = time.perf_counter()
    indices = [k for k in itertools.product(range(11), repeat=3) if sum(k) <= 10]
    ok = all(
        moment(0, k) == kingman_closed_form(k) == kingman_beta_moment(k) for k in indices
    )
    ok = ok and all(moment(0, (k, 0, 0)) == kingman_univariate(k) for k in range(13))
    _report("criterion-03 alpha=0 closed forms (S<=10)", ok, time.perf_counter() - t0, 5.0)


def test_criterion_04_half_and_one_laws():
    t0 = time.perf_counter()
    indices = [k for k in itertools.product(range(11), repeat=3) if sum(k) <= 10]
    ok = all(moment(Fraction(1, 2), k) == crt_dirichlet_moment(k) for k in indices)
    ok = ok and all(moment(1, k) == comb_moment(k) for k in indices)
    _report("criterion-04 alpha=1/2 and alpha=1 laws (S<=10)", ok, time.perf_counter() - t0, 5.0)


def test_criterion_05_stationarity_exact():
    t0 = time.perf_counter()
    ok = True
    for m in (4, 5, 6):
        for a in ALPHA_GRID_4:
            fwd = forward_rate_matrix(a, m)
            pi = exact_distribution(a, m).as_vector(fwd.states)
            flow = [Fraction(0)] * len(pi)
            for s, row in enumerate(fwd.rows):
                for t, r in row.items():
                    flow[t] += pi[s] * r
                flow[s] -= pi[s] * fwd.off_diagonal_total(s)
            ok = ok and all(f == 0 for f in flow)
    _report("criterion-05 pi.Q = 0 exactly (m=4,5,6)", ok, time.perf_counter() - t0, 30.0)


def test_criterion_06_deletion_stability():
    t0 = time.perf_counter()
    ok = all(
        deletion_stability_check(a, m)[0] for m in (4, 5, 6, 7) for a in ALPHA_GRID_4
    )
    _report("criterion-06 deletion stability (m=4..7)", ok, time.perf_counter() - t0, 60.0)


def test_criterion_07_feynman_kac_duality():
    t0 = time.perf_counter()
    worst = max(
        verify_feynman_kac(a, m, t)
        for m in (4, 5, 6)
        for a in ALPHA_GRID_4
        for t in (0.1, 0.5, 1.0)
    )
    _report(
        f"criterion-07 Feynman-Kac matrix duality (worst dev {worst:.2e})",
        worst < 1e-8,
        time.perf_counter() - t0,
        120.0,
    )


def test_criterion_08_beta_identity():
    t0 = time.perf_counter()
    ok = all(
        verify_beta_is_rate_discrepancy(a, m) for m in (4, 5, 6, 7) for a in ALPHA_GRID_4
    )
    _report("criterion-08 beta = backward - forward rate (m<=7)", ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_kingman_equals_alpha_zero():
    t0 = time.perf_counter()
    n = 100_000
    rng = stream(90210)
    counts = Counter(sample_kingman_cladogram(5, rng).key for _ in range(n))
    dist = exact_distribution(0, 5)
    observed = np.array([counts.get(k, 0) for k in dist.table])
    expected = np.array([float(p) * n for p in dist.table.values()])
    pvalue = stats.chisquare(observed, expected).pvalue
    _report(
        f"criterion-09 coalescent sampler vs exact law (p={pvalue:.3f})",
        pvalue > 1e-3,
        time.perf_counter() - t0,
        10.0,
    )


def test_criterion_10_sampling_consistency():
    # uniform 4-subsamples of a 2000-leaf alpha-Ford tree span each of the
    # three labeled quartets with probability 1/3
    t0 = time.perf_counter()
    n = 100_000
    ok = True
    detail = []
    for i, alpha in enumerate(("0", "1/2", "1")):
        tree = sample_ford_tree(alpha, 2000, stream(1010, i))
        draws = tree.sample_distinct_leaves(n, 4, stream(1011, i))
        codes = tree.quartet_partners(draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3])
        for code in (1, 2, 3):
            p = float((codes == code).mean())
            se = math.sqrt(p * (1 - p) / n)
            z = (p - 1 / 3) / se
            detail.append(abs(z))
            ok = ok and abs(z) < 3
    _report(
        f"criterion-10 sampling consistency m=4 (max |z|={max(detail):.2f})",
        ok,
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_11_subtree_mass_monte_carlo():
    t0 = time.perf_counter()
    triples = 100_000
    ok = True
    detail = []
    yule = sample_ford_tree(0, 2000, stream(1100))
    targets = {(1, 0, 0): Fraction(1, 3), (2, 0, 0): Fraction(1, 5), (3, 0, 0): Fraction(11, 75)}
    est = estimate_mass_moments(yule, list(targets), triples, stream(1101))
    for k, target in targets.items():
        mean, se = est[k]
        z = (mean - float(target)) / se
        detail.append(abs(z))
        ok = ok and abs(z) < 4
    comb = build_comb_tree(2000)
    ks = [(1, 0, 0), (2, 0, 0), (3, 0, 0), (2, 1, 0)]
    est = estimate_mass_moments(comb, ks, triples, stream(1102))
    for k in ks:
        mean, se = est[k]
        z = (mean - float(comb_moment(k))) / se
        detail.append(abs(z))
        ok = ok and abs(z) < 4
    _report(
        f"criterion-11 subtree-mass Monte Carlo (max |z|={max(detail):.2f})",
        ok,
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_12_chain_diffusion_duality():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for i, alpha in enumerate(("0", "1/2")):
        checks = verify_chain_diffusion_duality(
            alpha, 4, 128, 0.05, replicates=10_000, seed=1200 + i
        )
        for c in checks:
            worst = max(worst, abs(c.z_score))
            ok = ok and abs(c.z_score) < 4
    _report(
        f"criterion-12 chain vs dual expectation (max |z|={worst:.2f})",
        ok,
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_13_chain_dynamics_against_dual():
    # Criterion 12's m = 4 vector is the same for every tree.  At m = 6 the
    # comb spans no three-cherry ("snowflake") state, so the mean of the exact
    # per-replicate Phi^6(X_t) moves with the chain; by exchangeability each
    # replicate's vector is constant on the 2 unlabeled classes.
    t0 = time.perf_counter()
    m, t, replicates = 6, 0.05, 1000
    comb = build_comb_tree(64)
    phi0 = np.array([float(p) for p in exact_shape_vector(comb, m)])
    snowflake = np.array([len(s.cherries()) == 6 for s in enumerate_cladograms(m)])

    def observe(state):
        return [float(p) for p in exact_shape_vector(state, m)]

    ok = phi0[snowflake].sum() == 0
    worst = 0.0
    for i, alpha in enumerate(("0", "1/2")):
        qb = backward_rate_matrix(alpha, m).to_dense()
        beta = np.array([float(b) for b in beta_potential(alpha, m).values()])
        rhs = matrix_exponential(qb + np.diag(beta), t) @ phi0
        phi = np.empty((replicates, len(phi0)))
        for r in range(replicates):
            state = ChainState(comb, alpha, stream(1300 + i, r))
            phi[r] = simulate_chain(state, t, observers=[observe])["observations"][-1][1][0]
        z = (phi.mean(axis=0) - rhs) / (phi.std(axis=0, ddof=1) / math.sqrt(replicates))
        worst = max(worst, float(np.abs(z).max()))
        ok = ok and rhs[snowflake].sum() > 0.05 and bool((np.abs(z) < 4).all())
    _report(
        f"criterion-13 chain dynamics vs dual, m=6 from a comb (max |z|={worst:.2f})",
        ok,
        time.perf_counter() - t0,
        30.0,
    )
