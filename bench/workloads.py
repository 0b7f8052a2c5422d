"""The four workloads: fixed work, correctness checks and per-layer metrics.

Each workload is a ``setup(seed)`` that imports what its entry points need
and makes the inputs, and a ``body(p, inputs)`` whose operations run through
``p.run`` (timed, traced when tracing is on, then checked outside the timed
region).  ``layer_metrics(p, tracer, inputs)`` runs only in traced passes and
reads the per-layer metrics off the spans, plus a few probes that time one
public call in a loop.  Inputs depend on the seed alone, so every pass of a
run repeats the same work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# |z| bound for the Monte Carlo checks.  A run makes at most 8 distinct z-tests
# and a comparison of two commits under a thousand; at 5 sigma a false alarm
# anywhere has probability below 1e-3.
Z_MAX = 5.0

# Sorted multisets of the exact alpha = 1/3 laws at the seed commit, as
# "numerator/denominator" lines; independent of how states are keyed or ordered.
LAW_DIGEST = {
    7: "ee946cb25bd25f34322793a2371f801b8d22c433bfc2e2d751ca1138e8f2ff9d",
    8: "65ebf6d5f664e0cb54c8177d867aba84cad6f84cfc608d497217f854071b8447",
}


# Host speed.  On the VM this benchmark was built on, a fixed pure-Python
# loop took anywhere from 1x to 1.7x its fastest time, in phases lasting
# seconds to minutes, with no steal time visible in the guest.  Every
# operation is therefore bracketed by this loop, and each operation's time is
# also reported scaled to the speed at which the loop takes CAL_REF_S (the
# quiet speed of that VM).
CAL_LOOP = 300_000
CAL_REF_S = 0.06


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and integer work."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for j in range(CAL_LOOP):
        d[j & 1023] = (j * j) ^ d.get((j * 7) & 1023, 0)
    return time.perf_counter() - t0


def alpha_tag(alpha) -> str:
    a = Fraction(alpha)
    return f"a{a.numerator}" if a.denominator == 1 else f"a{a.numerator}_{a.denominator}"


def law_digest(probs) -> str:
    text = "\n".join(f"{p.numerator}/{p.denominator}" for p in sorted(probs))
    return hashlib.sha256(text.encode()).hexdigest()


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def _mean(xs) -> float:
    return sum(xs) / len(xs)


class Pass:
    """One pass of a workload: runs and checks its operations.

    ``cal`` holds the calibration loop's times: one taken when the pass was
    ready, then one after each operation, so every operation is bracketed.
    """

    def __init__(self, tracer, traced: bool, out_dir: Path, cal_ready: float):
        self.tracer = tracer
        self.traced = traced
        self.out_dir = out_dir
        self.cal = [cal_ready]
        self.ops: list[dict] = []
        self.metrics: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def run(self, name: str, fn, check):
        """Time ``fn()``, then check its result untimed; failures are recorded,
        never raised, so one broken operation does not hide the others."""
        verdict = None
        t0 = time.perf_counter()
        try:
            with self.tracer.op(name):
                out = fn()
        except Exception as exc:  # the benchmark reports the failure and goes on
            out, verdict = None, (False, f"raised {exc!r}")
        seconds = time.perf_counter() - t0
        self.cal.append(calibrate())
        if verdict is None:
            try:
                verdict = check(out)
            except Exception as exc:
                verdict = (False, f"check raised {exc!r}")
        ok, detail = verdict if isinstance(verdict, tuple) else (bool(verdict), "")
        scale = 2 * CAL_REF_S / (self.cal[-2] + self.cal[-1])
        self.check(name, ok, detail, seconds, seconds * scale)
        return out

    def check(self, name, ok, detail="", seconds=None, scaled_s=None) -> None:
        self.ops.append(
            {"name": name, "seconds": seconds, "scaled_s": scaled_s, "ok": bool(ok), "detail": detail}
        )


# -- exact ---------------------------------------------------------------------

EXACT_ALPHAS = (Fraction(0), Fraction(1, 3))
K30 = [(a, b, s - a - b) for s in range(31) for a in range(s + 1) for b in range(s - a + 1)]
K10 = [k for k in K30 if sum(k) <= 10]


def setup_exact(seed: int):
    # The exact work has fixed sizes; the seed does not enter.
    from alphaford import chain, cladogram, ford, moments

    return {"chain": chain, "cladogram": cladogram, "ford": ford, "moments": moments}


def _check_total_rates(q, m: int, alpha: Fraction):
    total = m * (m - 1 - 3 * alpha)
    ok = len(q.states) == double_factorial(2 * m - 5) and all(
        q.total_rate(s) == total for s in range(len(q.states))
    )
    return ok, f"{len(q.states)} states"


def _check_reversal(fwd, bwd):
    """Entrywise q_bwd(t', t) = q_fwd(t, t')."""
    if fwd is None:
        return False, "no forward matrix"
    n_fwd = sum(len(r) for r in fwd.rows)
    n_bwd = sum(len(r) for r in bwd.rows)
    ok = n_fwd == n_bwd and all(
        bwd.entry(t, s) == r for s, row in enumerate(fwd.rows) for t, r in row.items()
    )
    return ok, f"{n_fwd} off-diagonal entries"


def _check_law(dist, m: int):
    probs = list(dist.table.values())
    ok = (
        len(probs) == double_factorial(2 * m - 5)
        and sum(probs, Fraction(0)) == 1
        and law_digest(probs) == LAW_DIGEST[m]
    )
    return ok, f"{len(probs)} states"


def _check_moments(values, alpha: Fraction):
    v = dict(zip(K30, values))
    a = alpha
    expected = {
        (1, 0, 0): Fraction(1, 3),
        (2, 0, 0): Fraction(1, 5),
        (1, 1, 0): Fraction(1, 15),
        (3, 0, 0): (11 - 7 * a) / (15 * (5 - 3 * a)),
        (4, 0, 0): (37 - 25 * a) / (63 * (5 - 3 * a)),
        (5, 0, 0): (145 - 165 * a + 44 * a**2) / (42 * (5 - 3 * a) * (7 - 3 * a)),
    }
    ok = all(v[k] == e for k, e in expected.items()) and all(0 < x <= 1 for x in values)
    return ok, f"{len(values)} moments"


def _closed_forms(moments) -> bool:
    """Criteria 03-04: recursion against every closed form up to degree 10."""
    half = Fraction(1, 2)
    return (
        all(
            moments.moment(0, k) == moments.kingman_closed_form(k) == moments.kingman_beta_moment(k)
            for k in K10
        )
        and all(moments.moment(0, (k, 0, 0)) == moments.kingman_univariate(k) for k in range(13))
        and all(moments.moment(half, k) == moments.crt_dirichlet_moment(k) for k in K10)
        and all(moments.moment(1, k) == moments.comb_moment(k) for k in K10)
    )


def body_exact(p: Pass, mods) -> None:
    chain, ford, moments = mods["chain"], mods["ford"], mods["moments"]
    for alpha in EXACT_ALPHAS:
        a = alpha_tag(alpha)
        fwd = p.run(
            f"forward_m7.{a}",
            lambda: chain.forward_rate_matrix(alpha, 7),
            lambda q: _check_total_rates(q, 7, alpha),
        )
        p.run(
            f"backward_m7.{a}",
            lambda: chain.backward_rate_matrix(alpha, 7),
            lambda q: _check_reversal(fwd, q),
        )
        p.run(f"invariance_m7.{a}", lambda: chain.verify_invariance(alpha, 7), lambda r: r == 0)
        p.run(
            f"beta_check_m7.{a}",
            lambda: chain.verify_beta_is_rate_discrepancy(alpha, 7),
            lambda r: r is True,
        )
        p.run(
            f"deletion_check_m7.{a}",
            lambda: ford.deletion_stability_check(alpha, 7),
            lambda r: r[0] is True and r[1] == 0,
        )
        p.run(
            f"feynman_kac_m6.{a}",
            lambda: chain.verify_feynman_kac(alpha, 6, 0.5),
            lambda dev: (dev < 1e-8, f"deviation {dev:.2e}"),
        )
    third = Fraction(1, 3)
    p.run("exact_law_m8", lambda: ford.exact_distribution(third, 8), lambda d: _check_law(d, 8))
    p.run(
        "recursion_k30",
        lambda: [moments.moment(third, k) for k in K30],
        lambda vals: _check_moments(vals, third),
    )
    p.run("closed_forms_k10", lambda: _closed_forms(moments), lambda ok: ok is True)


def layer_metrics_exact(p: Pass, tr, mods) -> dict:
    cladogram = mods["cladogram"]
    op = lambda name: tr.duration(tr.op_span(name))  # noqa: E731
    out = {
        "ford.exact_law_m8_s": op("exact_law_m8"),
        "chain.move_tables_m7_s": op("forward_m7.a0"),
        "chain.assemble_m7_s": op("forward_m7.a1_3"),
        "moments.recursion_s": op("recursion_k30"),
        "moments.closed_form_s": op("closed_forms_k10"),
    }
    for alpha in EXACT_ALPHAS:
        a = alpha_tag(alpha)
        out[f"chain.invariance_m7_s.{a}"] = op(f"invariance_m7.{a}")
        out[f"chain.beta_check_m7_s.{a}"] = op(f"beta_check_m7.{a}")
        out[f"chain.feynman_kac_m6_s.{a}"] = op(f"feynman_kac_m6.{a}")
        out[f"ford.deletion_check_m7_s.{a}"] = op(f"deletion_check_m7.{a}")
    out["cladogram.enumerate_s"] = sum(
        tr.duration(j) for j in tr.spans("cladogram.enumerate_cladograms")
    )

    # probes: one public call in a loop, on fresh m=7 trees (keys not cached)
    fresh = [cladogram.Cladogram(7, t.edges) for t in cladogram.enumerate_cladograms(7)]
    t0 = time.perf_counter()
    for t in fresh:
        t.key
    out["cladogram.key_us"] = 1e6 * (time.perf_counter() - t0) / len(fresh)
    moves = [(t, k) for t in fresh for k in t.leaves]
    t0 = time.perf_counter()
    for t, k in moves:
        reduced = t.delete_leaf(k)
        reduced.insert_leaf(reduced.edges[0], new_label=k)
    out["cladogram.edit_us"] = 1e6 * (time.perf_counter() - t0) / len(moves)

    out["cladogram.states_m8"] = len(cladogram.enumerate_cladograms(8))
    out["cladogram.states_m8_expected"] = double_factorial(2 * 8 - 5)
    n6 = double_factorial(2 * 6 - 5)
    out["chain.dense_generator_m6_bytes"] = n6 * n6 * 8  # computed: float64 n x n
    return out


# -- chain ---------------------------------------------------------------------

CHAIN_ALPHAS = ("0", "1/2")
CHAIN_N, CHAIN_T, CHAIN_R = 128, 0.05, 200
SELF_MOVE_BLOCKS, SELF_MOVE_BLOCK = 100, 500


def setup_chain(seed: int):
    import numpy as np

    from alphaford import chain, ford

    return {
        "chain": chain,
        "ford": ford,
        "seeds": [1000 * seed + i for i in range(len(CHAIN_ALPHAS))],
        "rngs": [np.random.default_rng([seed, i]) for i in range(len(CHAIN_ALPHAS))],
    }


def _check_duality(checks):
    worst = max(abs(c.z_score) for c in checks)
    return len(checks) == 3 and worst < Z_MAX, f"max |z| {worst:.2f}"


def body_chain(p: Pass, inp) -> None:
    chain = inp["chain"]
    for alpha, seed in zip(CHAIN_ALPHAS, inp["seeds"]):
        p.run(
            f"duality.{alpha_tag(alpha)}",
            lambda: chain.verify_chain_diffusion_duality(
                alpha, 4, CHAIN_N, CHAIN_T, replicates=CHAIN_R, seed=seed
            ),
            _check_duality,
        )


def _self_move_probe(inp, alpha: str, rng):
    """Fraction of ChainState.move() calls that are self-moves, next to its
    expected value (1-a)c + a(N-c) over N(N-1-3a) averaged over the visited
    states, c the number of cherry leaves."""
    chain, a = inp["chain"], Fraction(alpha)
    state = chain.ChainState(inp["ford"].sample_ford_tree(alpha, CHAIN_N, rng), alpha, rng)
    total = CHAIN_N * (CHAIN_N - 1 - 3 * a)
    expected, self_moves = [], 0
    for _ in range(SELF_MOVE_BLOCKS):
        c = len(state.as_tree().topology.cherries())
        expected.append(float(((1 - a) * c + a * (CHAIN_N - c)) / total))
        for _ in range(SELF_MOVE_BLOCK):
            self_moves += not state.move()
    return self_moves / (SELF_MOVE_BLOCKS * SELF_MOVE_BLOCK), _mean(expected)


def layer_metrics_chain(p: Pass, tr, inp) -> dict:
    out = {}
    builds, indexes, streams = [], [], []
    for alpha, rng in zip(CHAIN_ALPHAS, inp["rngs"]):
        a = alpha_tag(alpha)
        op = tr.op_span(f"duality.{a}")
        inits = tr.descendants(op, "chain.ChainState.__init__")
        first = tr.start[inits[0]]
        ends = [tr.start[j] for j in inits[1:]] + [tr.end[op]]
        reps_ms = [(e - tr.start[j]) / 1e6 for j, e in zip(inits, ends)]
        out[f"chain.replicate_p50_ms.{a}"] = statistics.median(reps_ms)
        out[f"chain.replicate_p99_ms.{a}"] = statistics.quantiles(reps_ms, n=100)[98]
        runs = tr.descendants(op, "chain.ChainState.run_until")
        run_s = sum(tr.duration(j) for j in runs)
        jumps = sum(tr.value[j] for j in runs)
        out[f"chain.run_until_ms.{a}"] = 1e3 * run_s / len(runs)
        out[f"chain.jump_us.{a}"] = 1e6 * run_s / jumps
        out[f"chain.jumps.{a}"] = jumps
        n, t = CHAIN_N, CHAIN_T
        out[f"chain.jumps_expected.{a}"] = float(CHAIN_R * n * (n - 1 - 3 * Fraction(alpha)) * t)
        snaps = tr.descendants(op, "chain.ChainState.as_tree")
        out[f"chain.snapshot_ms.{a}"] = 1e3 * _mean([tr.duration(j) for j in snaps])
        ests = [j for j in tr.descendants(op, "chain.estimate_shape_vector") if tr.start[j] > first]
        out[f"chain.estimate_ms.{a}"] = 1e3 * _mean([tr.duration(j) for j in ests])
        out[f"chain.dual_rhs_s.{a}"] = (first - tr.start[op]) / 1e9
        snap_set = set(snaps)
        builds += [
            j
            for j in tr.descendants(op, "cladogram.Cladogram.__init__")
            if tr.parent[j] in snap_set
        ]
        indexes += [
            j for j in tr.descendants(op, "tree.FiniteMeasureTree.index") if tr.start[j] > first
        ]
        streams += tr.descendants(op, "rng.stream")
        frac, expected = _self_move_probe(inp, alpha, rng)
        out[f"chain.self_move_fraction.{a}"] = frac
        out[f"chain.self_move_fraction_expected.{a}"] = expected
    out["cladogram.build_n128_ms"] = 1e3 * _mean([tr.duration(j) for j in builds])
    out["tree.index_n128_ms"] = 1e3 * _mean([tr.duration(j) for j in indexes])
    out["rng.stream_us"] = 1e6 * _mean([tr.duration(j) for j in streams])
    return out


# -- bigtree -------------------------------------------------------------------

BIG_ALPHAS = ("0", "1")
BIG_N = 100_000
BIG_Q = 100_000


def setup_bigtree(seed: int):
    import numpy as np

    from alphaford import ford, moments

    return {
        "ford": ford,
        "moments": moments,
        "rngs": [np.random.default_rng([seed, i]) for i in range(len(BIG_ALPHAS))],
    }


def _check_nu(nu, n: int):
    """Sum of nu is exactly 1: every atom is a multiple of 1/n^3."""
    cube = n**3
    total = sum(v.numerator * (cube // v.denominator) for v in nu.values())
    return len(nu) == 2 * n - 2 and total == cube, f"{len(nu)} atoms"


def _quartets(tree, rng):
    d = tree.sample_distinct_leaves(BIG_Q, 4, rng)
    return tree.quartet_partners(d[:, 0], d[:, 1], d[:, 2], d[:, 3])


def _check_quartets(codes):
    """Each partner code has frequency 1/3: b, c, d are exchangeable draws."""
    se = math.sqrt(2 / 9 / BIG_Q)
    z = max(abs(float((codes == c).mean()) - 1 / 3) / se for c in (1, 2, 3))
    return len(codes) == BIG_Q and z < Z_MAX, f"max |z| {z:.2f}"


def _check_eta(est):
    """E[eta_1] = 1/3 on every tree: the three masses sum to 1 and are exchangeable."""
    mean, se = est[(1, 0, 0)]
    z = abs(mean - 1 / 3) / se
    return z < Z_MAX, f"|z| {z:.2f}"


def _index_mb(tree) -> float:
    """Bytes of the index's numpy arrays (computed from their sizes)."""
    return sum(getattr(v, "nbytes", 0) for v in vars(tree.index).values()) / 1e6


def body_bigtree(p: Pass, inp) -> None:
    ford, moments = inp["ford"], inp["moments"]
    for alpha, rng in zip(BIG_ALPHAS, inp["rngs"]):
        a = alpha_tag(alpha)
        tree = p.run(
            f"sample_n100k.{a}",
            lambda: ford.sample_ford_tree(alpha, BIG_N, rng),
            lambda t: t.n == BIG_N,
        )
        p.run(f"index_n100k.{a}", lambda: tree.index, lambda idx: idx is not None)
        p.run(f"nu.{a}", lambda: tree.branch_point_distribution(), lambda nu: _check_nu(nu, BIG_N))
        p.run(f"quartets.{a}", lambda: _quartets(tree, rng), _check_quartets)
        p.run(
            f"moments.{a}",
            lambda: moments.estimate_mass_moments(tree, [(1, 0, 0)], BIG_Q, rng),
            _check_eta,
        )
        if p.traced and tree is not None:
            p.metrics[f"tree.index_mb.{a}"] = _index_mb(tree)
        del tree  # the two trees are never alive together


def layer_metrics_bigtree(p: Pass, tr, inp) -> dict:
    out = dict(p.metrics)
    for alpha in BIG_ALPHAS:
        a = alpha_tag(alpha)
        sample = tr.op_span(f"sample_n100k.{a}")
        out[f"ford.sample_n100k_s.{a}"] = tr.duration(sample)
        out[f"cladogram.build_n100k_s.{a}"] = sum(
            tr.duration(j) for j in tr.descendants(sample, "cladogram.Cladogram.__init__")
        )
        out[f"tree.index_n100k_s.{a}"] = tr.duration(tr.op_span(f"index_n100k.{a}"))
        out[f"tree.nu_s.{a}"] = tr.duration(tr.op_span(f"nu.{a}"))
        (qp,) = tr.descendants(tr.op_span(f"quartets.{a}"), "tree.FiniteMeasureTree.quartet_partners")
        out[f"tree.quartets_per_s.{a}"] = BIG_Q / tr.duration(qp)
        mom = tr.op_span(f"moments.{a}")
        (tc,) = tr.descendants(mom, "tree.FiniteMeasureTree.triple_component_counts")
        out[f"tree.triples_per_s.{a}"] = BIG_Q / tr.duration(tc)
        out[f"moments.estimate_s.{a}"] = tr.duration(mom)
    return out


# -- cli -----------------------------------------------------------------------


def setup_cli(seed: int):
    import alphaford

    return {"seed": seed, "threads": min(2, os.cpu_count() or 1), "version": alphaford.__version__}


def cli_commands(seed: int, threads: int):
    """(name, argv, artifact suffix, check) for the README's commands."""
    s = str(seed)
    return [
        ("verify", ["verify", "--alpha", "1/3", "--m", "6"], "json", _check_verify),
        (
            "chain_run",
            ["chain", "run", "--alpha", "1/4", "--leaves", "128", "--t", "0.5"]
            + ["--replicates", "64", "--threads", str(threads), "--seed", s],
            "csv",
            _check_chain_run,
        ),
        (
            "moments_estimate",
            ["moments", "estimate", "--alpha", "0", "--leaves", "2000", "--triples", "100000"]
            + ["--seed", s],
            "csv",
            _check_moments_estimate,
        ),
        ("ford_exact", ["ford", "exact", "--alpha", "1/3", "--m", "7"], "csv", _check_ford_exact),
        ("tree_nu", ["tree", "nu", "--ford-leaves", "20000", "--seed", s], "csv", _check_tree_nu),
    ]


def _invoke(tracer, name: str, argv, out: Path):
    with tracer.region(f"cli.{name}", "cli"):
        return subprocess.run(
            [sys.executable, "-m", "alphaford.cli", *argv, "--out", str(out)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )


def _csv_rows(path: Path) -> list[list[str]]:
    import csv

    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _cli_check(check):
    """Exit code 0 and the version header first, then the artifact check."""

    def run(proc, out: Path, version: str):
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        text = out.read_text()
        if f"# alphaford-version: {version}\n" not in text and f'"version": "{version}"' not in text:
            return False, "artifact header lacks the package version"
        return check(out)

    return run


@_cli_check
def _check_verify(out: Path):
    reports = json.loads(out.read_text())["data"]
    return len(reports) >= 5 and all(r["pass"] for r in reports), f"{len(reports)} reports"


@_cli_check
def _check_chain_run(out: Path):
    rows = _csv_rows(out)
    vals = [[float(x) for x in r[2:]] for r in rows]
    ok = (
        sorted(int(r[0]) for r in rows) == list(range(64))
        and all(len(v) == 3 and min(v) >= 0 and sum(v) <= 1 for v in vals)
    )
    return ok, f"{len(rows)} rows"


@_cli_check
def _check_moments_estimate(out: Path):
    rows = _csv_rows(out)
    first = [r for r in rows if sum(int(x) for x in r[:3]) == 1]
    zs = [abs(float(r[3]) - 1 / 3) / float(r[4]) for r in first]
    ok = bool(first) and max(zs) < Z_MAX and all(Fraction(int(r[5]), int(r[6])) == Fraction(1, 3) for r in first)
    return ok, f"max |z| {max(zs, default=0):.2f}"


@_cli_check
def _check_ford_exact(out: Path):
    probs = [Fraction(int(r[1]), int(r[2])) for r in _csv_rows(out)]
    ok = sum(probs, Fraction(0)) == 1 and law_digest(probs) == LAW_DIGEST[7]
    return ok, f"{len(probs)} states"


@_cli_check
def _check_tree_nu(out: Path):
    n = 20_000
    cube = n**3
    rows = _csv_rows(out)
    total = sum(int(num) * (cube // int(den)) for _, num, den in rows)
    return len(rows) == 2 * n - 2 and total == cube, f"{len(rows)} atoms"


def body_cli(p: Pass, inp) -> None:
    p.out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv, suffix, check in cli_commands(inp["seed"], inp["threads"]):
        out = p.out_dir / f"{name}.{suffix}"
        p.run(
            name,
            lambda: _invoke(p.tracer, name, argv, out),
            lambda proc: check(proc, out, inp["version"]),
        )
        if out.exists():
            p.digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import scipy.linalg; t2 = time.perf_counter(); import alphaford.cli; "
    "t3 = time.perf_counter(); print(t2 - t1, t3 - t0)"
)


def layer_metrics_cli(p: Pass, tr, inp) -> dict:
    out = {f"cli.{name}_s": tr.duration(tr.op_span(name)) for name, *_ in cli_commands(0, 1)}
    probes = [
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True)
        for _ in range(3)
    ]
    scipy_s, import_s = zip(*(map(float, pr.stdout.split()) for pr in probes))
    out["cli.scipy_import_s"] = statistics.median(scipy_s)
    out["cli.import_s"] = statistics.median(import_s)
    # the same chain run on one worker: time ratio, and the artifact must not change
    name, argv, suffix, _ = cli_commands(inp["seed"], 1)[1]
    single = p.out_dir / f"{name}.threads1.{suffix}"
    t0 = time.perf_counter()
    proc = _invoke(tr, name, argv, single)
    out["cli.pool_speedup"] = (time.perf_counter() - t0) / out["cli.chain_run_s"]
    same = proc.returncode == 0 and single.read_bytes() == (p.out_dir / f"{name}.{suffix}").read_bytes()
    p.check("chain_run_threads_1_same_artifact", same)
    return out


WORKLOADS = {
    "exact": (setup_exact, body_exact, layer_metrics_exact),
    "chain": (setup_chain, body_chain, layer_metrics_chain),
    "bigtree": (setup_bigtree, body_bigtree, layer_metrics_bigtree),
    "cli": (setup_cli, body_cli, layer_metrics_cli),
}
