"""Command-line front end.

Subcommands: ``ford`` (samplers and exact laws), ``chain`` (simulation and
chain verifications), ``moments`` (exact and Monte Carlo subtree-mass
moments), ``tree`` (branch-point-distribution and mass-metric exports), and
``verify`` (aggregated check suite).

Every artifact carries a header block with the tool version, a hash of the
resolved configuration, and the seed, so identical invocations produce
byte-identical outputs.  The hash covers the command, the seed and every
option except ``--seed``, ``--out``, ``--threads`` and ``--format``, which
change neither what is computed nor the seeded results.  Exit codes: 0
success, 1 a verification report failed, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from alphaford import __version__, cladogram, moments
from alphaford import chain as chain_mod
from alphaford import ford as ford_mod
from alphaford._rng import parse_alpha, stream
from alphaford.cladogram import StructureError, enumerate_cladograms, to_newick
from alphaford.ford import build_comb_tree, exact_distribution, sample_ford_tree
from alphaford.tree import FiniteMeasureTree

OUTPUT_DIR_ENV = "ALPHAFORD_OUT_DIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# parsed options left out of the config hash: --seed has its own header line,
# and the other three change neither what is computed nor the seeded results
_UNHASHED = ("seed", "out", "threads", "fmt")


@dataclass
class RunConfig:
    """One invocation: the hashed parameters, and the options outside the hash."""

    command: str
    params: dict
    seed: int
    threads: int | None
    fmt: str | None

    def hash(self) -> str:
        blob = json.dumps(
            {"command": self.command, "params": self.params, "seed": self.seed},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class VerificationReport:
    check: str
    parameters: dict
    residual: float | str
    threshold: float | str
    passed: bool
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        # wall time stays out of artifacts so equal configs serialize identically
        return {
            "check": self.check,
            "parameters": self.parameters,
            "residual": self.residual,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _emit(out: str | None, text: str) -> None:
    """Write an artifact to stdout, or to ``out`` (a relative path lies under
    $ALPHAFORD_OUT_DIR when that is set)."""
    if out is None:
        sys.stdout.write(text)
        return
    out = os.path.join(os.environ.get(OUTPUT_DIR_ENV) or "", out)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as fh:
        fh.write(text)


def _csv_lines(config: RunConfig, header: list[str], lines) -> str:
    """The CSV artifact of these data lines, each a ready line of text."""
    out = [
        f"# alphaford-version: {__version__}",
        f"# config-hash: {config.hash()}",
        f"# seed: {config.seed}",
        ",".join(header),
    ]
    out.extend(lines)
    return "\n".join(out) + "\n"


def _csv_artifact(config: RunConfig, header: list[str], rows) -> str:
    return _csv_lines(config, header, (",".join(map(str, row)) for row in rows))


def _json_artifact(config: RunConfig, data) -> str:
    doc = {
        "meta": {
            "version": __version__,
            "config_hash": config.hash(),
            "seed": config.seed,
        },
        "data": data,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _alpha_str(alpha: Fraction) -> str:
    return f"{alpha.numerator}/{alpha.denominator}"


# -- ford ------------------------------------------------------------------------


def _trees_artifact(config: RunConfig, draw, **data) -> str:
    """``--count`` cladograms ``draw(rng)`` from the seed's stream, one Newick
    line each, or a JSON artifact holding them next to ``data``."""
    if config.params["count"] < 1:
        raise StructureError("need --count >= 1")
    rng = stream(config.seed)
    newicks = [to_newick(draw(rng)) for _ in range(config.params["count"])]
    if config.fmt == "json":
        return _json_artifact(config, {**data, "trees": newicks})
    return "".join(n + "\n" for n in newicks)


def _cmd_ford_sample(config: RunConfig) -> str:
    alpha, leaves = parse_alpha(config.params["alpha"]), config.params["leaves"]
    draw = lambda rng: ford_mod.sample_ford_cladogram(alpha, leaves, rng)  # noqa: E731
    return _trees_artifact(config, draw, alpha=_alpha_str(alpha))


def _cmd_ford_coalescent(config: RunConfig) -> str:
    m = config.params["m"]
    return _trees_artifact(config, lambda rng: ford_mod.sample_kingman_cladogram(m, rng))


def _cmd_ford_exact(config: RunConfig) -> str:
    p = config.params
    dist = exact_distribution(p["alpha"], p["m"])
    rows = []
    for t, prob in zip(enumerate_cladograms(p["m"]), dist.table.values()):
        rows.append((f'"{to_newick(t)}"', prob.numerator, prob.denominator))
    return _csv_artifact(config, ["newick", "numerator", "denominator"], rows)


# -- moments ---------------------------------------------------------------------


# the moment recursion's cost grows as d^3 indices with ever longer numerators:
# `moments exact --alpha 1/3 --max-degree 160` takes 2-4 s and 215 MB peak RSS
# on a 2-core Xeon VM and writes 29 MB
_MAX_DEGREE = 160


def _degree_indices(max_degree: int):
    if not 0 <= max_degree <= _MAX_DEGREE:
        raise StructureError(f"need 0 <= --max-degree <= {_MAX_DEGREE}, got {max_degree}")
    out = []
    for s in range(max_degree + 1):  # each degree's k1 >= k2 >= k3, descending
        out += sorted((k[::-1] for k in moments._sorted_indices(s)), reverse=True)
    return out


def _cmd_moments_exact(config: RunConfig) -> str:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    rows = []
    for k in _degree_indices(p["max_degree"]):
        v = moments.moment(alpha, k)
        rows.append((k[0], k[1], k[2], v.numerator, v.denominator))
    return _csv_artifact(config, ["k1", "k2", "k3", "numerator", "denominator"], rows)


def _cmd_moments_estimate(config: RunConfig) -> str:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    ks = [k for k in _degree_indices(p["max_degree"]) if sum(k) >= 1]
    if p["triples"] < 2:
        raise StructureError("need --triples >= 2 for a standard error")
    tree = sample_ford_tree(alpha, p["leaves"], stream(config.seed, 0))
    est = moments.estimate_mass_moments(tree, ks, p["triples"], stream(config.seed, 1))
    rows = []
    for k in ks:
        mean, se = est[k]
        exact = moments.moment(alpha, k)
        rows.append((k[0], k[1], k[2], repr(mean), repr(se), exact.numerator, exact.denominator))
    header = ["k1", "k2", "k3", "estimate", "stderr", "exact_numerator", "exact_denominator"]
    return _csv_artifact(config, header, rows)


def _kingman_suite(ks) -> int:
    bad = 0
    for k in ks:
        m0 = moments.moment(0, k)
        bad += (m0 != moments.kingman_closed_form(k)) + (m0 != moments.kingman_beta_moment(k))
        if k[1] == 0:  # (k1, 0, 0): the univariate law
            bad += m0 != moments.kingman_univariate(k[0])
    return bad


def _universal_suite(ks) -> int:
    """The alpha-free moments, on a grid of alpha; ``ks`` is not read."""
    bad = 0
    for alpha in (Fraction(a) for a in ("0", "1/8", "1/4", "1/2", "3/4", "1")):
        bad += moments.moment(alpha, (1, 0, 0)) != Fraction(1, 3)
        bad += moments.moment(alpha, (2, 0, 0)) != Fraction(1, 5)
        bad += moments.moment(alpha, (1, 1, 0)) != Fraction(1, 15)
        bad += moments.moment(alpha, (3, 0, 0)) != (11 - 7 * alpha) / (15 * (5 - 3 * alpha))
    return bad


# suite -> the number of mismatches of the moment recursion against closed forms
_MOMENT_SUITES = {
    "kingman": _kingman_suite,
    "crt": lambda ks: sum(
        moments.moment(Fraction(1, 2), k) != moments.crt_dirichlet_moment(k) for k in ks
    ),
    "comb": lambda ks: sum(moments.moment(1, k) != moments.comb_moment(k) for k in ks),
    "universal": _universal_suite,
}


def _moments_suite(suite: str, max_degree: int) -> VerificationReport:
    t0 = time.perf_counter()
    bad = _MOMENT_SUITES[suite](_degree_indices(max_degree))
    return VerificationReport(
        check=f"moments-{suite}",
        parameters={"max_degree": max_degree},
        residual=bad,
        threshold=0,
        passed=bad == 0,
        wall_time=time.perf_counter() - t0,
    )


def _cmd_moments_verify(config: RunConfig) -> list[VerificationReport]:
    return [_moments_suite(config.params["suite"], config.params["max_degree"])]


# -- chain -----------------------------------------------------------------------


def _parse_observable(text: str) -> int:
    prefix, _, m = text.partition("shape:m=")
    top = cladogram.MAX_ENUMERATION_LEAVES
    if prefix or not m.isdigit() or not 2 <= int(m) <= top:
        raise StructureError(f"observable {text!r} is not shape:m=M, M an integer in 2..{top}")
    return int(m)


def _chain_run_replicate(args: tuple) -> tuple[int, list]:
    alpha_str, n_leaves, horizon, n_obs_times, m, seed, r = args
    alpha = Fraction(alpha_str)
    rng = stream(seed, r)
    state = chain_mod.ChainState(sample_ford_tree(alpha, n_leaves, rng), alpha, rng)
    rows = []
    times = [horizon * (i + 1) / n_obs_times for i in range(n_obs_times)]
    for t in times:
        state.run_until(t)
        phi = chain_mod.exact_shape_vector(state, m)
        rows.append((r, repr(t), *(repr(float(x)) for x in phi)))
    return r, rows


def _cmd_chain_run(config: RunConfig) -> str:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    m = _parse_observable(p["observe"])
    if not 0 <= p["t"] < math.inf or min(p["replicates"], p["obs_times"]) < 1:
        raise StructureError("need finite --t >= 0 and --replicates, --obs-times >= 1")
    if p["leaves"] < max(5, m):  # the chain needs 5 leaves, the observable m
        raise StructureError(f"a chain observed at shape:m={m} needs --leaves >= {max(5, m)}")
    cores = os.cpu_count() or 1
    if not 1 <= config.threads <= cores:
        raise StructureError(f"need 1 <= --threads <= {cores}, got {config.threads}")
    if m <= 5:  # every m-cladogram has the same unlabeled shape
        print(
            f"note: shape:m={m} is the same for every tree when m <= 5, so every row holds "
            "the same constant; observe shape:m=6 or more to follow the chain",
            file=sys.stderr,
        )
    labels = [f'"{to_newick(t)}"' for t in enumerate_cladograms(m)]
    work = [
        (_alpha_str(alpha), p["leaves"], p["t"], p["obs_times"], m, config.seed, r)
        for r in range(p["replicates"])
    ]
    workers = min(config.threads, len(work))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chain_run_replicate, work))
    else:
        results = [_chain_run_replicate(w) for w in work]
    results.sort(key=lambda pair: pair[0])
    rows = [row for _, chunk in results for row in chunk]
    return _csv_artifact(config, ["replicate", "time", *labels], rows)


def _invariance_check(alpha, m: int, t: float) -> tuple:
    residual = chain_mod.verify_invariance(alpha, m)
    return {}, str(residual), "0", residual == 0


def _beta_check(alpha, m: int, t: float) -> tuple:
    ok = chain_mod.verify_beta_is_rate_discrepancy(alpha, m)
    return {}, 0 if ok else 1, 0, ok


def _duality_check(alpha, m: int, t: float) -> tuple:
    dev = chain_mod.verify_feynman_kac(alpha, m, t)
    return {"t": t}, dev, 1e-8, dev < 1e-8


# check -> (alpha, m, t) -> (parameters besides alpha and m, residual, threshold,
# passed); ``verify`` runs them in this order
_CHAIN_CHECKS = {"invariance": _invariance_check, "beta": _beta_check, "duality": _duality_check}


def _chain_check(check: str, alpha, m: int, t: float) -> VerificationReport:
    t0 = time.perf_counter()
    alpha = parse_alpha(alpha)
    if not 0 <= t < math.inf:
        raise ValueError(f"need finite t >= 0, got t={t}")
    extra, residual, threshold, passed = _CHAIN_CHECKS[check](alpha, m, t)
    params = {"alpha": _alpha_str(alpha), "m": m, **extra}
    return VerificationReport(check, params, residual, threshold, passed, time.perf_counter() - t0)


def _cmd_chain_verify(config: RunConfig) -> list[VerificationReport]:
    p = config.params
    return [_chain_check(p["check"], p["alpha"], p["m"], p["t"])]


# -- tree ------------------------------------------------------------------------


def _tree_from_params(p: dict, seed: int) -> FiniteMeasureTree:
    alpha = parse_alpha(p["alpha"])
    sources = [p["newick"], p["newick_file"], p["comb"], p["ford"]]
    if sum(x is not None for x in sources) != 1:
        raise StructureError("give exactly one of --newick, --newick-file, --comb, --ford-leaves")
    if p["newick"] is not None:
        return FiniteMeasureTree.from_newick(p["newick"])
    if p["newick_file"] is not None:
        with open(p["newick_file"], encoding="utf-8-sig") as fh:  # a BOM is no label
            return FiniteMeasureTree.from_newick(fh.read())
    if p["comb"] is not None:
        return build_comb_tree(p["comb"])
    return sample_ford_tree(alpha, p["ford"], stream(seed))


def _cmd_tree_nu(config: RunConfig) -> str:
    tree = _tree_from_params(config.params, config.seed)
    nu = tree.branch_point_distribution()
    # nu's keys run leaves 1..N, then -1, -2, ...: sorted, the internal part
    # comes first, reversed.  Atoms are shared, so each is formatted once.
    vertices, atoms = list(nu), list(nu.values())
    text = {id(x): x for x in atoms}
    text = {i: f",{x.numerator},{x.denominator}" for i, x in text.items()}
    n = tree.n
    pairs = zip(vertices[n:][::-1] + vertices[:n], atoms[n:][::-1] + atoms[:n])
    lines = [f"{v}{text[id(x)]}" for v, x in pairs]
    return _csv_lines(config, ["vertex", "numerator", "denominator"], lines)


_RMU_MAX_LEAVES = 200


def _check_rmu_leaves(n: int) -> None:
    if n > _RMU_MAX_LEAVES:
        raise StructureError(f"pairwise mass-metric export is limited to {_RMU_MAX_LEAVES} leaves")


def _cmd_tree_rmu(config: RunConfig) -> str:
    p = config.params
    # --comb and --ford-leaves give the size up front: it is checked before
    # the tree is built
    for n in (p["comb"], p["ford"]):
        if n is not None:
            _check_rmu_leaves(n)
    tree = _tree_from_params(p, config.seed)
    _check_rmu_leaves(tree.n)
    # every pair x <= y of vertices in ascending id, row by row
    vertices = np.array(sorted(tree.topology.vertices))
    x, y = (vertices[i] for i in np.triu_indices(len(vertices)))
    numerator = tree.r_mu_numerators(x, y)
    denominator = 2 * tree.n**3
    gcd = np.gcd(numerator, denominator)
    rows = zip(x.tolist(), y.tolist(), (numerator // gcd).tolist(), (denominator // gcd).tolist())
    return _csv_artifact(config, ["x", "y", "numerator", "denominator"], rows)


# -- aggregated verify -------------------------------------------------------------

# the moment suite whose closed form holds at alpha
_CLOSED_FORM_SUITE = {Fraction(0): "kingman", Fraction(1, 2): "crt", Fraction(1): "comb"}


def _cmd_verify(config: RunConfig) -> list[VerificationReport]:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    m = p["m"]
    universal = _moments_suite("universal", p["max_degree"])  # first: validates --max-degree
    reports = [_chain_check(check, alpha, m, p["t"]) for check in _CHAIN_CHECKS]
    reports.append(universal)
    t0 = time.perf_counter()
    ok, residual = ford_mod.deletion_stability_check(alpha, m)
    wall, params = time.perf_counter() - t0, {"alpha": _alpha_str(alpha), "m": m}
    reports.append(VerificationReport("deletion-stability", params, str(residual), "0", ok, wall))
    if alpha in _CLOSED_FORM_SUITE:
        reports.append(_moments_suite(_CLOSED_FORM_SUITE[alpha], p["max_degree"]))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check} ({r.wall_time:.2f}s)", file=sys.stderr)
    return reports


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed (64-bit unsigned)")
    common.add_argument("--out", help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")

    parser = argparse.ArgumentParser(prog="alphaford", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name: str, handler, **kwargs) -> argparse.ArgumentParser:
        """Declare one subcommand and the handler that computes its artifact."""
        p = group.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def group(name: str, summary: str):
        return sub.add_parser(name, help=summary).add_subparsers(dest="subcommand", required=True)

    fsub = group("ford", "samplers and exact cladogram laws")
    fs = command(fsub, "sample", _cmd_ford_sample)
    fs.add_argument("--alpha", required=True)
    fs.add_argument("--leaves", type=int, required=True)
    fs.add_argument("--count", type=int, default=1)
    fs.add_argument("--format", dest="fmt", choices=["newick", "json"], default="newick")
    fe = command(fsub, "exact", _cmd_ford_exact)
    fe.add_argument("--alpha", required=True)
    fe.add_argument("--m", type=int, required=True)
    fc = command(fsub, "coalescent", _cmd_ford_coalescent)
    fc.add_argument("--m", type=int, required=True)
    fc.add_argument("--count", type=int, default=1)
    fc.add_argument("--format", dest="fmt", choices=["newick", "json"], default="newick")

    csub = group("chain", "chain simulation and verifications")
    cr = command(csub, "run", _cmd_chain_run)
    cr.add_argument("--alpha", required=True)
    cr.add_argument("--leaves", type=int, required=True)
    cr.add_argument("--t", type=float, required=True)
    cr.add_argument("--observe", default="shape:m=4")
    cr.add_argument("--replicates", type=int, default=1)
    cr.add_argument("--obs-times", type=int, default=1, help="equally spaced observation times")
    cr.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="worker processes, 1 to all cores"
    )
    cv = command(csub, "verify", _cmd_chain_verify)
    cv.add_argument("check", choices=list(_CHAIN_CHECKS))
    cv.add_argument("--alpha", required=True)
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--t", type=float, default=0.5)

    msub = group("moments", "subtree-mass moments")
    me = command(msub, "exact", _cmd_moments_exact)
    me.add_argument("--alpha", required=True)
    me.add_argument("--max-degree", type=int, default=5)
    mm = command(msub, "estimate", _cmd_moments_estimate)
    mm.add_argument("--alpha", required=True)
    mm.add_argument("--leaves", type=int, required=True)
    mm.add_argument("--triples", type=int, default=100_000)
    mm.add_argument("--max-degree", type=int, default=3)
    mv = command(msub, "verify", _cmd_moments_verify)
    mv.add_argument("--suite", required=True, choices=list(_MOMENT_SUITES))
    mv.add_argument("--max-degree", type=int, default=8)

    tsub = group("tree", "branch point distribution and mass metric")
    for name, handler in (("nu", _cmd_tree_nu), ("rmu", _cmd_tree_rmu)):
        tp = command(tsub, name, handler)
        tp.add_argument("--newick")
        tp.add_argument("--newick-file")
        tp.add_argument("--comb", type=int)
        tp.add_argument("--ford-leaves", type=int, dest="ford")
        tp.add_argument("--alpha", default="1/2")

    ver = command(sub, "verify", _cmd_verify, help="aggregated verification suite")
    ver.add_argument("--alpha", required=True)
    ver.add_argument("--m", type=int, default=5)
    ver.add_argument("--t", type=float, default=0.5)
    ver.add_argument("--max-degree", type=int, default=6)
    return parser


def main(argv=None) -> int:
    """Run one command: write its artifact and return the exit code, 1 iff a
    verification report failed."""
    params = vars(_build_parser().parse_args(argv))
    handler = params.pop("handler")
    command = " ".join(filter(None, (params.pop("command"), params.pop("subcommand", None))))
    seed, out, threads, fmt = (params.pop(name, None) for name in _UNHASHED)
    config = RunConfig(command, params, seed, threads, fmt)
    try:
        artifact, failed = handler(config), False
        if isinstance(artifact, list):  # verification reports
            failed = not all(r.passed for r in artifact)
            artifact = _json_artifact(config, [r.to_dict() for r in artifact])
        _emit(out, artifact)
    except (StructureError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_USAGE
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
