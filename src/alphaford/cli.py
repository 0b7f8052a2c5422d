"""Command-line front end.

Subcommands: ``ford`` (samplers and exact laws), ``chain`` (simulation and
chain verifications), ``moments`` (exact and Monte Carlo subtree-mass
moments), ``tree`` (branch-point-distribution and mass-metric exports), and
``verify`` (aggregated check suite).

Every artifact carries a header block with the tool version, a hash of the
resolved configuration, and the seed, so identical invocations produce
byte-identical outputs.  Exit codes: 0 success, 1 a verification check
failed, 2 usage or validation error.
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

from alphaford import __version__, moments
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


@dataclass
class RunConfig:
    """Resolved parameters of one invocation; hashed into artifact headers."""

    command: str
    params: dict
    seed: int = 0
    threads: int = 1
    out: str | None = None
    fmt: str | None = None

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


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(config: RunConfig, text: str) -> None:
    out = _resolve_out(config.out)
    if out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)


def _csv_artifact(config: RunConfig, header: list[str], rows) -> str:
    lines = [
        f"# alphaford-version: {__version__}",
        f"# config-hash: {config.hash()}",
        f"# seed: {config.seed}",
        ",".join(header),
    ]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


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


def _report_artifact(config: RunConfig, reports: list[VerificationReport]) -> str:
    return _json_artifact(config, [r.to_dict() for r in reports])


def _alpha_str(alpha: Fraction) -> str:
    return f"{alpha.numerator}/{alpha.denominator}"


# -- ford ------------------------------------------------------------------------


def _cmd_ford_sample(config: RunConfig) -> int:
    p = config.params
    if p["count"] < 1:
        raise StructureError("need --count >= 1")
    alpha = parse_alpha(p["alpha"])
    rng = stream(config.seed)
    trees = [
        ford_mod.sample_ford_cladogram(alpha, p["leaves"], rng) for _ in range(p["count"])
    ]
    newicks = [to_newick(t) for t in trees]
    if config.fmt == "json":
        _emit(config, _json_artifact(config, {"alpha": _alpha_str(alpha), "trees": newicks}))
    else:
        _emit(config, "".join(n + "\n" for n in newicks))
    return EXIT_OK


def _cmd_ford_coalescent(config: RunConfig) -> int:
    p = config.params
    if p["count"] < 1:
        raise StructureError("need --count >= 1")
    rng = stream(config.seed)
    trees = [ford_mod.sample_kingman_cladogram(p["m"], rng) for _ in range(p["count"])]
    newicks = [to_newick(t) for t in trees]
    if config.fmt == "json":
        _emit(config, _json_artifact(config, {"trees": newicks}))
    else:
        _emit(config, "".join(n + "\n" for n in newicks))
    return EXIT_OK


def _cmd_ford_exact(config: RunConfig) -> int:
    p = config.params
    dist = exact_distribution(p["alpha"], p["m"])
    rows = []
    for t in enumerate_cladograms(p["m"]):
        prob = dist.table[t.key]
        rows.append((f'"{to_newick(t)}"', prob.numerator, prob.denominator))
    _emit(config, _csv_artifact(config, ["newick", "numerator", "denominator"], rows))
    return EXIT_OK


# -- moments ---------------------------------------------------------------------


def _degree_indices(max_degree: int):
    if max_degree < 0:
        raise StructureError("need --max-degree >= 0")
    out = []
    for s in range(max_degree + 1):
        for k1 in range(s, -1, -1):
            for k2 in range(min(k1, s - k1), -1, -1):
                k3 = s - k1 - k2
                if k3 <= k2:
                    out.append((k1, k2, k3))
    return out


def _cmd_moments_exact(config: RunConfig) -> int:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    rows = []
    for k in _degree_indices(p["max_degree"]):
        v = moments.moment(alpha, k)
        rows.append((k[0], k[1], k[2], v.numerator, v.denominator))
    _emit(config, _csv_artifact(config, ["k1", "k2", "k3", "numerator", "denominator"], rows))
    return EXIT_OK


def _cmd_moments_estimate(config: RunConfig) -> int:
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
    _emit(
        config,
        _csv_artifact(
            config,
            ["k1", "k2", "k3", "estimate", "stderr", "exact_numerator", "exact_denominator"],
            rows,
        ),
    )
    return EXIT_OK


def _moments_suite(suite: str, max_degree: int) -> VerificationReport:
    t0 = time.perf_counter()
    ks = _degree_indices(max_degree)
    bad = 0
    if suite == "kingman":
        for k in ks:
            m0 = moments.moment(0, k)
            bad += m0 != moments.kingman_closed_form(k)
            bad += m0 != moments.kingman_beta_moment(k)
        for k1 in range(max_degree + 1):
            bad += moments.moment(0, (k1, 0, 0)) != moments.kingman_univariate(k1)
    elif suite == "crt":
        for k in ks:
            bad += moments.moment(Fraction(1, 2), k) != moments.crt_dirichlet_moment(k)
    elif suite == "comb":
        for k in ks:
            bad += moments.moment(1, k) != moments.comb_moment(k)
    elif suite == "universal":
        grid = (0, Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
        for alpha in (Fraction(a) for a in grid):
            bad += moments.moment(alpha, (1, 0, 0)) != Fraction(1, 3)
            bad += moments.moment(alpha, (2, 0, 0)) != Fraction(1, 5)
            bad += moments.moment(alpha, (1, 1, 0)) != Fraction(1, 15)
            bad += moments.moment(alpha, (3, 0, 0)) != (11 - 7 * alpha) / (15 * (5 - 3 * alpha))
    else:
        raise StructureError(f"unknown moments suite {suite!r}")
    return VerificationReport(
        check=f"moments-{suite}",
        parameters={"max_degree": max_degree},
        residual=bad,
        threshold=0,
        passed=bad == 0,
        wall_time=time.perf_counter() - t0,
    )


def _cmd_moments_verify(config: RunConfig) -> int:
    report = _moments_suite(config.params["suite"], config.params["max_degree"])
    _emit(config, _report_artifact(config, [report]))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- chain -----------------------------------------------------------------------


def _parse_observable(text: str) -> int:
    if not text.startswith("shape:m="):
        raise StructureError(f"unsupported observable {text!r}; use shape:m=M")
    return int(text.split("=", 1)[1])


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


def _cmd_chain_run(config: RunConfig) -> int:
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
    _emit(config, _csv_artifact(config, ["replicate", "time", *labels], rows))
    return EXIT_OK


def _chain_check(check: str, alpha, m: int, t: float) -> VerificationReport:
    t0 = time.perf_counter()
    alpha = parse_alpha(alpha)
    params = {"alpha": _alpha_str(alpha), "m": m}
    if check == "invariance":
        residual = chain_mod.verify_invariance(alpha, m)
        rep = VerificationReport("invariance", params, str(residual), "0", residual == 0)
    elif check == "beta":
        ok = chain_mod.verify_beta_is_rate_discrepancy(alpha, m)
        rep = VerificationReport("beta", params, 0 if ok else 1, 0, ok)
    elif check == "duality":
        params["t"] = t
        dev = chain_mod.verify_feynman_kac(alpha, m, t)
        rep = VerificationReport("duality", params, dev, 1e-8, dev < 1e-8)
    else:
        raise StructureError(f"unknown chain check {check!r}")
    rep.wall_time = time.perf_counter() - t0
    return rep


def _cmd_chain_verify(config: RunConfig) -> int:
    p = config.params
    report = _chain_check(p["check"], p["alpha"], p["m"], p["t"])
    _emit(config, _report_artifact(config, [report]))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# -- tree ------------------------------------------------------------------------


def _tree_from_params(p: dict, seed: int) -> FiniteMeasureTree:
    sources = [p.get("newick"), p.get("newick_file"), p.get("comb"), p.get("ford")]
    if sum(x is not None for x in sources) != 1:
        raise StructureError("give exactly one of --newick, --newick-file, --comb, --ford-leaves")
    if p.get("newick") is not None:
        return FiniteMeasureTree.from_newick(p["newick"])
    if p.get("newick_file") is not None:
        with open(p["newick_file"]) as fh:
            return FiniteMeasureTree.from_newick(fh.read())
    if p.get("comb") is not None:
        return build_comb_tree(p["comb"])
    return sample_ford_tree(parse_alpha(p["alpha"]), p["ford"], stream(seed))


def _cmd_tree_nu(config: RunConfig) -> int:
    tree = _tree_from_params(config.params, config.seed)
    nu = tree.branch_point_distribution()
    rows = [(v, val.numerator, val.denominator) for v, val in sorted(nu.items())]
    _emit(config, _csv_artifact(config, ["vertex", "numerator", "denominator"], rows))
    return EXIT_OK


def _cmd_tree_rmu(config: RunConfig) -> int:
    tree = _tree_from_params(config.params, config.seed)
    if tree.n > 200:
        raise StructureError("pairwise mass-metric export is limited to 200 leaves")
    vertices = sorted(tree.topology.vertices)
    rows = []
    for x in vertices:
        for y in vertices:
            if x <= y:
                val = tree.r_mu(x, y)
                rows.append((x, y, val.numerator, val.denominator))
    _emit(config, _csv_artifact(config, ["x", "y", "numerator", "denominator"], rows))
    return EXIT_OK


# -- aggregated verify -------------------------------------------------------------


def _cmd_verify(config: RunConfig) -> int:
    p = config.params
    alpha = parse_alpha(p["alpha"])
    m = p["m"]
    universal = _moments_suite("universal", p["max_degree"])  # first: validates --max-degree
    reports = [
        _chain_check("invariance", alpha, m, p["t"]),
        _chain_check("beta", alpha, m, p["t"]),
        _chain_check("duality", alpha, m, p["t"]),
        universal,
    ]
    t0 = time.perf_counter()
    ok, residual = ford_mod.deletion_stability_check(alpha, m)
    reports.append(
        VerificationReport(
            "deletion-stability",
            {"alpha": _alpha_str(alpha), "m": m},
            str(residual),
            "0",
            ok,
            time.perf_counter() - t0,
        )
    )
    if alpha == 0:
        reports.append(_moments_suite("kingman", p["max_degree"]))
    elif alpha == Fraction(1, 2):
        reports.append(_moments_suite("crt", p["max_degree"]))
    elif alpha == 1:
        reports.append(_moments_suite("comb", p["max_degree"]))
    _emit(config, _report_artifact(config, reports))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.check} ({r.wall_time:.2f}s)", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed (64-bit unsigned)")
    common.add_argument("--out", help=f"output path (relative paths honor ${OUTPUT_DIR_ENV})")

    parser = argparse.ArgumentParser(prog="alphaford", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ford = sub.add_parser("ford", help="samplers and exact cladogram laws")
    fsub = ford.add_subparsers(dest="subcommand", required=True)
    fs = fsub.add_parser("sample", parents=[common])
    fs.add_argument("--alpha", required=True)
    fs.add_argument("--leaves", type=int, required=True)
    fs.add_argument("--count", type=int, default=1)
    fs.add_argument("--format", dest="fmt", choices=["newick", "json"], default="newick")
    fe = fsub.add_parser("exact", parents=[common])
    fe.add_argument("--alpha", required=True)
    fe.add_argument("--m", type=int, required=True)
    fc = fsub.add_parser("coalescent", parents=[common])
    fc.add_argument("--m", type=int, required=True)
    fc.add_argument("--count", type=int, default=1)
    fc.add_argument("--format", dest="fmt", choices=["newick", "json"], default="newick")

    chain_p = sub.add_parser("chain", help="chain simulation and verifications")
    csub = chain_p.add_subparsers(dest="subcommand", required=True)
    cr = csub.add_parser("run", parents=[common])
    cr.add_argument("--alpha", required=True)
    cr.add_argument("--leaves", type=int, required=True)
    cr.add_argument("--t", type=float, required=True)
    cr.add_argument("--observe", default="shape:m=4")
    cr.add_argument("--replicates", type=int, default=1)
    cr.add_argument("--obs-times", type=int, default=1, help="equally spaced observation times")
    cr.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="worker processes, 1 to all cores"
    )
    cv = csub.add_parser("verify", parents=[common])
    cv.add_argument("check", choices=["invariance", "duality", "beta"])
    cv.add_argument("--alpha", required=True)
    cv.add_argument("--m", type=int, required=True)
    cv.add_argument("--t", type=float, default=0.5)

    mo = sub.add_parser("moments", help="subtree-mass moments")
    msub = mo.add_subparsers(dest="subcommand", required=True)
    me = msub.add_parser("exact", parents=[common])
    me.add_argument("--alpha", required=True)
    me.add_argument("--max-degree", type=int, default=5)
    mm = msub.add_parser("estimate", parents=[common])
    mm.add_argument("--alpha", required=True)
    mm.add_argument("--leaves", type=int, required=True)
    mm.add_argument("--triples", type=int, default=100_000)
    mm.add_argument("--max-degree", type=int, default=3)
    mv = msub.add_parser("verify", parents=[common])
    mv.add_argument("--suite", required=True, choices=["kingman", "crt", "comb", "universal"])
    mv.add_argument("--max-degree", type=int, default=8)

    tr = sub.add_parser("tree", help="branch point distribution and mass metric")
    tsub = tr.add_subparsers(dest="subcommand", required=True)
    for name in ("nu", "rmu"):
        tp = tsub.add_parser(name, parents=[common])
        tp.add_argument("--newick")
        tp.add_argument("--newick-file")
        tp.add_argument("--comb", type=int)
        tp.add_argument("--ford-leaves", type=int, dest="ford")
        tp.add_argument("--alpha", default="1/2")

    ver = sub.add_parser("verify", parents=[common], help="aggregated verification suite")
    ver.add_argument("--alpha", required=True)
    ver.add_argument("--m", type=int, default=5)
    ver.add_argument("--t", type=float, default=0.5)
    ver.add_argument("--max-degree", type=int, default=6)
    return parser


_DISPATCH = {
    ("ford", "sample"): (_cmd_ford_sample, ["alpha", "leaves", "count"]),
    ("ford", "exact"): (_cmd_ford_exact, ["alpha", "m"]),
    ("ford", "coalescent"): (_cmd_ford_coalescent, ["m", "count"]),
    ("chain", "run"): (_cmd_chain_run, ["alpha", "leaves", "t", "observe", "replicates", "obs_times"]),
    ("chain", "verify"): (_cmd_chain_verify, ["check", "alpha", "m", "t"]),
    ("moments", "exact"): (_cmd_moments_exact, ["alpha", "max_degree"]),
    ("moments", "estimate"): (_cmd_moments_estimate, ["alpha", "leaves", "triples", "max_degree"]),
    ("moments", "verify"): (_cmd_moments_verify, ["suite", "max_degree"]),
    ("tree", "nu"): (_cmd_tree_nu, ["newick", "newick_file", "comb", "ford", "alpha"]),
    ("tree", "rmu"): (_cmd_tree_rmu, ["newick", "newick_file", "comb", "ford", "alpha"]),
    ("verify", None): (_cmd_verify, ["alpha", "m", "t", "max_degree"]),
}


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    key = tuple(config.command.split(" ", 1)) if " " in config.command else (config.command, None)
    handler, _ = _DISPATCH[key]
    return handler(config)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command + (f" {args.subcommand}" if getattr(args, "subcommand", None) else "")
    key = (args.command, getattr(args, "subcommand", None))
    _, param_names = _DISPATCH[key]
    params = {name: getattr(args, name, None) for name in param_names}
    config = RunConfig(
        command=command,
        params=params,
        seed=args.seed,
        threads=getattr(args, "threads", 1),
        out=args.out,
        fmt=getattr(args, "fmt", None),
    )
    try:
        return run(config)
    except (StructureError, ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
