import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alphaford import cli, moments
from alphaford._rng import stream
from alphaford.chain import ChainState, exact_shape_vector
from alphaford.cladogram import from_newick, to_newick
from alphaford.ford import build_comb_tree, sample_ford_tree
from alphaford.tree import FiniteMeasureTree

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_exact_contains_degree_three_row(capsys):
    code, out, _ = run_cli(capsys, "moments", "exact", "--alpha", "0", "--max-degree", "3")
    assert code == 0
    assert "3,0,0,11,75" in out
    assert out.startswith("# alphaford-version:")


def test_reproducibility_byte_identical(capsys):
    args = ["ford", "sample", "--alpha", "1/2", "--leaves", "12", "--count", "3", "--seed", "99"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_ford_sample_newick_roundtrips(capsys):
    code, out, _ = run_cli(
        capsys, "ford", "sample", "--alpha", "1", "--leaves", "6", "--count", "1", "--seed", "7"
    )
    assert code == 0
    tree = from_newick(out.strip())
    assert tree.m == 6


def test_ford_sample_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "ford", "sample", "--alpha", "1/4", "--leaves", "5", "--count", "2",
        "--seed", "3", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["meta"]["version"]
    assert len(doc["data"]["trees"]) == 2


def test_ford_exact_csv(capsys):
    code, out, _ = run_cli(capsys, "ford", "exact", "--alpha", "1/2", "--m", "5")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 16  # header + 15 states
    assert all(row.endswith(",1,15") for row in rows[1:])


def test_ford_coalescent(capsys):
    code, out, _ = run_cli(capsys, "ford", "coalescent", "--m", "5", "--count", "4", "--seed", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [["ford", "sample", "--alpha", "1/2", "--leaves", "5"], ["ford", "coalescent", "--m", "5"]],
)
def test_ford_count_must_be_positive(capsys, argv, count):
    code, out, err = run_cli(capsys, *argv, "--count", count)
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"]


def test_chain_verify_invariance_passes(capsys):
    code, out, _ = run_cli(capsys, "chain", "verify", "invariance", "--alpha", "1/3", "--m", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["data"][0]["pass"] is True
    assert doc["data"][0]["residual"] == "0"


def test_chain_verify_duality(capsys):
    code, out, _ = run_cli(
        capsys, "chain", "verify", "duality", "--alpha", "0", "--m", "4", "--t", "0.3"
    )
    assert code == 0
    assert json.loads(out)["data"][0]["pass"] is True


def test_chain_run_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain", "run", "--alpha", "1/2", "--leaves", "16", "--t", "0.2",
        "--replicates", "3", "--seed", "5", "--threads", "1",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0].startswith("replicate,time,")
    assert len(rows) == 4


def test_chain_run_shape_m5(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain", "run", "--alpha", "0", "--leaves", "12", "--t", "0.1", "--observe", "shape:m=5",
        "--replicates", "2", "--seed", "6", "--threads", "1",
    )
    assert code == 0
    rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(rows[0]) == 2 + 15 and len(rows) == 3
    assert all(0 < sum(float(x) for x in row[2:]) <= 1 for row in rows[1:])


@pytest.mark.parametrize("m, noted", [(4, True), (6, False)])
def test_chain_run_notes_a_tree_free_observable_on_stderr_only(capsys, tmp_path, m, noted):
    out = tmp_path / "run.csv"
    argv = ["chain", "run", "--alpha", "1/2", "--leaves", "8", "--t", "0.05", "--replicates", "2"]
    code, _, err = run_cli(capsys, *argv, "--observe", f"shape:m={m}", "--threads", "1", "--out", str(out))
    assert code == 0
    note = f"note: shape:m={m} is the same for every tree"
    assert (note in err) is noted
    assert len(err.splitlines()) == int(noted)
    assert "note" not in out.read_text()


def test_chain_run_rows_are_exact_shapes_of_the_replayed_chain(capsys):
    code, out, _ = run_cli(
        capsys,
        "chain", "run", "--alpha", "1/2", "--leaves", "20", "--t", "0.2", "--observe", "shape:m=6",
        "--replicates", "2", "--obs-times", "2", "--seed", "7", "--threads", "1",
    )
    assert code == 0
    rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))[1:]
    replay = []
    for r in range(2):
        rng = stream(7, r)
        state = ChainState(sample_ford_tree("1/2", 20, rng), "1/2", rng)
        for t in (0.1, 0.2):
            state.run_until(t)
            phi = exact_shape_vector(state, 6)
            replay.append([str(r), repr(t), *(repr(float(p)) for p in phi)])
    assert rows == replay


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _no_chain(*args, **kwargs):
    raise AssertionError("a chain was built")


@pytest.mark.parametrize(
    "bad",
    [
        ["--t", "-0.1"],
        ["--replicates", "0"],
        ["--observe", "shape:m=9"],
        ["--t", "nan"],
        ["--t", "inf"],
        ["--leaves", "4"],
    ],
)
def test_chain_run_rejects_bad_values(capsys, monkeypatch, bad):
    # rejected before any pool starts or chain is built; a chain run to nan
    # or inf would never end
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(cli.chain_mod, "ChainState", _no_chain)
    args = {"--leaves": "8", "--t": "0.1", "--replicates": "2", "--observe": "shape:m=4"}
    args[bad[0]] = bad[1]
    argv = ["chain", "run", "--alpha", "1/2", "--threads", "2"]
    code, out, err = run_cli(capsys, *argv, *itertools.chain(*args.items()))
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"]


CHAIN_RUN = ["chain", "run", "--alpha", "1/2", "--leaves", "8", "--t", "0.05"]


def _no_snapshot(*args, **kwargs):
    raise AssertionError("a snapshot, index or shape estimate was built")


def test_chain_run_builds_no_snapshot_index_or_estimate(capsys, monkeypatch):
    monkeypatch.setattr(ChainState, "as_tree", _no_snapshot)
    monkeypatch.setattr(FiniteMeasureTree, "index", property(_no_snapshot))
    monkeypatch.setattr(cli.chain_mod, "estimate_shape_vector", _no_snapshot)
    argv = [*CHAIN_RUN, "--replicates", "2", "--obs-times", "2", "--threads", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 4 + 4  # header block, then 2 rows each


def test_chain_run_has_no_tuples_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*CHAIN_RUN, "--tuples", "64"])
    assert exc.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-1", "9"])
def test_chain_run_rejects_threads_outside_cores(capsys, monkeypatch, threads):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", _no_pool)
    code, out, err = run_cli(capsys, *CHAIN_RUN, "--replicates", "3", "--threads", threads)
    assert code == 2 and out == ""
    assert "--threads" in json.loads(err.strip())["message"]


@pytest.mark.parametrize("t", ["nan", "inf"])
@pytest.mark.parametrize("argv", [["chain", "verify", "duality"], ["verify"]])
def test_verify_rejects_non_finite_t(capsys, argv, t):
    assert run_cli(capsys, *argv, "--alpha", "0", "--m", "5", "--t", t)[0] == 2


@pytest.mark.parametrize(
    "threads, replicates, pools", [("8", "3", [3]), ("2", "3", [2]), ("8", "1", []), ("1", "3", [])]
)
def test_chain_run_pool_size(capsys, monkeypatch, threads, replicates, pools):
    # min(--threads, --replicates) workers, and no pool for one
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    serial = run_cli(capsys, *CHAIN_RUN, "--replicates", replicates, "--threads", "1")
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert run_cli(capsys, *CHAIN_RUN, "--replicates", replicates, "--threads", threads) == serial
    assert serial[0] == 0 and sizes == pools


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_chain_run_two_workers_match_one(capsys):
    argv = [*CHAIN_RUN, "--replicates", "2", "--seed", "9"]
    serial = run_cli(capsys, *argv, "--threads", "1")
    assert serial[0] == 0
    assert run_cli(capsys, *argv, "--threads", "2") == serial


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--alpha", "1/2", "--threads", "2"],
        ["moments", "estimate", "--alpha", "0", "--leaves", "20", "--threads", "2"],
        ["ford", "exact", "--alpha", "0", "--m", "4", "--format", "json"],
        ["ford", "sample", "--alpha", "0", "--leaves", "5", "--format", "csv"],
    ],
)
def test_options_only_where_honoured(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_moments_estimate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "moments", "estimate", "--alpha", "1/2", "--leaves", "64",
        "--triples", "2000", "--seed", "2", "--max-degree", "2",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "k1,k2,k3,estimate,stderr,exact_numerator,exact_denominator"
    assert len(rows) == 4  # (1,0,0), (2,0,0), (1,1,0)


@pytest.mark.parametrize("suite", ["kingman", "crt", "comb", "universal"])
def test_moments_verify_suites(capsys, suite):
    code, out, _ = run_cli(capsys, "moments", "verify", "--suite", suite, "--max-degree", "5")
    assert code == 0
    assert json.loads(out)["data"][0]["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "exact", "--alpha", "0", "--max-degree", "-3"],
        ["moments", "estimate", "--alpha", "0", "--leaves", "20", "--max-degree", "-1"],
        ["moments", "verify", "--suite", "kingman", "--max-degree", "-1"],
        ["verify", "--alpha", "0", "--m", "4", "--max-degree", "-1"],
        ["chain", "verify", "duality", "--alpha", "0", "--m", "5", "--t", "-1"],
        ["verify", "--alpha", "0", "--m", "4", "--t", "-1"],
        ["moments", "estimate", "--alpha", "0", "--leaves", "20", "--triples", "0"],
        ["moments", "estimate", "--alpha", "0", "--leaves", "20", "--triples", "1"],
        ["chain", "run", "--alpha", "0", "--leaves", "6", "--t", "0.1", "--observe", "shape:m=7"],
        ["tree", "nu", "--comb", "5", "--alpha", "2"],
        ["tree", "nu", "--comb", "5", "--alpha", "foo"],
        ["chain", "verify", "invariance", "--alpha", "0", "--m", "5", "--t", "nan"],
        ["chain", "verify", "beta", "--alpha", "0", "--m", "5", "--t", "-1"],
        # rejected before the m <= 5 note, so stderr holds the error alone
        ["chain", "run", "--alpha", "0", "--leaves", "8", "--t", "0.1", "--observe", "shape:m=1"],
        ["chain", "run", "--alpha", "0", "--leaves", "8", "--t", "0.1", "--observe", "shape:m=x"],
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"]


def _no_moment(*args):
    raise AssertionError("a moment was computed")


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "exact", "--alpha", "1/3"],
        ["moments", "estimate", "--alpha", "0", "--leaves", "20"],
        ["moments", "verify", "--suite", "kingman"],
        ["verify", "--alpha", "0", "--m", "4"],
    ],
)
def test_max_degree_above_cap_is_usage_error_before_any_moment(capsys, monkeypatch, argv):
    monkeypatch.setattr(moments, "moment", _no_moment)
    code, out, err = run_cli(capsys, *argv, "--max-degree", str(cli._MAX_DEGREE + 1))
    assert code == 2 and out == ""
    assert str(cli._MAX_DEGREE) in json.loads(err)["message"]


def test_max_degree_cap_admits_degree_70():
    # degree 70 is the largest the numpy-only CI job asks for
    assert len(cli._degree_indices(70)) == 11022
    top = cli._degree_indices(cli._MAX_DEGREE)
    assert max(map(sum, top)) == cli._MAX_DEGREE


@pytest.mark.parametrize("observe", ["shape:m=x", "shape:m=1.5", "shape:m=", "shape:M=6"])
def test_chain_run_names_the_observable_form(capsys, observe):
    code, _, err = run_cli(capsys, *CHAIN_RUN, "--observe", observe, "--threads", "1")
    assert code == 2
    assert "shape:m=M" in json.loads(err)["message"]


def test_moments_verify_detects_failure(capsys, monkeypatch):
    monkeypatch.setattr(moments, "kingman_univariate", lambda k: 0)
    code, out, _ = run_cli(capsys, "moments", "verify", "--suite", "kingman", "--max-degree", "3")
    assert code == 1
    assert json.loads(out)["data"][0]["pass"] is False


def test_chain_verify_detects_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.chain_mod, "verify_invariance", lambda alpha, m: Fraction(1))
    code, out, _ = run_cli(capsys, "chain", "verify", "invariance", "--alpha", "1/3", "--m", "5")
    assert code == 1
    assert json.loads(out)["data"] == [
        {"check": "invariance", "parameters": {"alpha": "1/3", "m": 5}, "residual": "1",
         "threshold": "0", "pass": False}
    ]


def test_verify_detects_failure(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.chain_mod, "verify_invariance", lambda alpha, m: Fraction(1))
    out = tmp_path / "verify.json"
    code, stdout, err = run_cli(capsys, "verify", "--alpha", "0", "--m", "5", "--out", str(out))
    assert code == 1 and stdout == ""
    passed = {item["check"]: item["pass"] for item in json.loads(out.read_text())["data"]}
    assert passed.pop("invariance") is False and len(passed) == 5 and all(passed.values())
    assert "[FAIL] invariance" in err


def test_tree_nu_comb(capsys):
    code, out, _ = run_cli(capsys, "tree", "nu", "--comb", "6")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 10  # 6 leaves + 4 internal vertices


def test_tree_nu_deep_newick_file(tmp_path, capsys):
    path = tmp_path / "comb.nwk"
    path.write_text(to_newick(build_comb_tree(1500).topology) + "\n")
    code, out, _ = run_cli(capsys, "tree", "nu", "--newick-file", str(path))
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 1500 + 1498


def test_tree_nu_wrapped_newick_file(tmp_path, capsys):
    """A Newick file broken over lines, with spaces around commas, gives the
    same artifact as the one-line file at the same path."""
    path = tmp_path / "tree.nwk"
    path.write_text(NEWICK12 + "\n")
    code, flat, _ = run_cli(capsys, "tree", "nu", "--newick-file", str(path))
    assert code == 0
    path.write_text(NEWICK12.replace(",(", ",\n  (").replace(",", " , ").replace(";", "\n;") + "\n")
    code, wrapped, _ = run_cli(capsys, "tree", "nu", "--newick-file", str(path))
    assert code == 0 and wrapped == flat


def test_tree_nu_newick_file_with_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte order mark, as some editors write one, is not part of the
    tree: the rows equal those of --newick with the same text."""
    path = tmp_path / "bom.nwk"
    path.write_bytes(b"\xef\xbb\xbf" + NEWICK12.encode())
    code, from_file, _ = run_cli(capsys, "tree", "nu", "--newick-file", str(path))
    assert code == 0
    code, inline, _ = run_cli(capsys, "tree", "nu", "--newick", NEWICK12)
    assert code == 0
    rows = lambda out: [line for line in out.splitlines() if not line.startswith("#")]  # noqa: E731
    assert rows(from_file) == rows(inline)


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from alphaford import cli
from alphaford.chain import verify_chain_diffusion_duality
codes = [
    cli.main(["verify", "--alpha", "1/3", "--m", "6"]),
    cli.main(["chain", "verify", "duality", "--alpha", "0", "--m", "5"]),
]
verify_chain_diffusion_duality("1/2", 4, 64, 0.05, replicates=10)
sys.exit(max(codes))
"""


def test_cli_and_dual_paths_never_load_scipy(tmp_path):
    """The package imports no scipy: the CLI, ``verify``, the Feynman-Kac
    check and the chain-vs-dual comparison all run with scipy blocked."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert not any(e in done.stderr for e in ("ImportError", "ModuleNotFoundError")), done.stderr
    assert done.returncode == 0, done.stderr


NO_IDENTITY_READS = """
import sys
from alphaford import cli, cladogram

def refuse(*args, **kwargs):
    raise AssertionError("a cladogram's key, splits, == or hash was read")

clad = cladogram.Cladogram
clad.key = clad.splits = property(refuse)
clad.__eq__ = clad.__hash__ = refuse
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["ford", "exact", "--alpha", "1/3", "--m", "7"],
        ["chain", "run", "--alpha", "1/4", "--leaves", "128", "--t", "0.5", "--replicates", "4",
         "--threads", "1"],
    ],
)
def test_commands_read_no_cladogram_identity(capsys, argv):
    """The exact law and a chain run from a 128-leaf Ford tree read no
    tree's key, splits, ``==`` or hash: in a fresh interpreter whose
    ``Cladogram`` raises on each, they exit 0 and write the bytes of an
    unpatched run."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", NO_IDENTITY_READS, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and done.stdout == out


def test_tree_rmu_newick(capsys):
    code, out, _ = run_cli(capsys, "tree", "rmu", "--newick", "(1,(2,3),(4,5));")
    assert code == 0
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "x,y,numerator,denominator"


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_tree_rmu_rows_are_the_single_pair_metric(capsys, alpha):
    # every pair x <= y in ascending id, each value in lowest terms
    argv = ["tree", "rmu", "--ford-leaves", "25", "--alpha", alpha, "--seed", "4"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert rows[0] == ["x", "y", "numerator", "denominator"]
    tree = sample_ford_tree(alpha, 25, stream(4))
    vertices = sorted(tree.topology.vertices)
    pairs = [(x, y) for x in vertices for y in vertices if x <= y]
    assert [(int(x), int(y)) for x, y, _, _ in rows[1:]] == pairs
    for (x, y), (_, _, num, den) in zip(pairs, rows[1:]):
        val = tree.r_mu(x, y)
        assert (int(num), int(den)) == (val.numerator, val.denominator)


def _no_tree(*args, **kwargs):
    raise AssertionError("a tree was built")


@pytest.mark.parametrize("source", ["--comb", "--ford-leaves"])
def test_tree_rmu_rejects_a_large_size_before_building(capsys, monkeypatch, source):
    monkeypatch.setattr(cli, "build_comb_tree", _no_tree)
    monkeypatch.setattr(cli, "sample_ford_tree", _no_tree)
    code, out, err = run_cli(capsys, "tree", "rmu", source, "1000000")
    assert code == 2 and out == ""
    assert "200 leaves" in json.loads(err.strip())["message"]


def test_tree_rmu_rejects_a_large_newick_tree(capsys):
    newick = build_comb_tree(201).to_newick()
    code, out, err = run_cli(capsys, "tree", "rmu", "--newick", newick)
    assert code == 2 and out == ""
    assert "200 leaves" in json.loads(err.strip())["message"]


def test_tree_nu_rejects_a_non_ascii_leaf_label(capsys):
    # an Arabic-Indic one is a decimal digit to str.isdecimal and int, but no
    # label to_newick writes
    code, out, err = run_cli(capsys, "tree", "nu", "--newick", "(\u0661,2,3);")
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"] == "StructureError"


def test_tree_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "tree", "nu", "--comb", "6", "--newick", "(1,2);")
    assert code == 2
    assert "error" in err


def test_invalid_alpha_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "ford", "sample", "--alpha", "3/2", "--leaves", "5")
    assert code == 2
    assert json.loads(err.strip())["error"]


def test_exact_guard_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "ford", "exact", "--alpha", "1/2", "--m", "9")
    assert code == 2


def test_out_file_and_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, out, _ = run_cli(
        capsys, "moments", "exact", "--alpha", "1/2", "--max-degree", "2", "--out", "m.csv"
    )
    assert code == 0
    assert out == ""
    text = (tmp_path / "m.csv").read_text()
    assert "1,1,0,1,15" in text


def test_verify_all_suite(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--alpha", "1/2", "--m", "5", "--max-degree", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(item["pass"] for item in doc["data"])
    checks = {item["check"] for item in doc["data"]}
    assert {"invariance", "beta", "duality", "deletion-stability", "moments-universal"} <= checks


def test_config_hash_changes_with_params(capsys):
    _, out1, _ = run_cli(capsys, "moments", "exact", "--alpha", "0", "--max-degree", "2")
    _, out2, _ = run_cli(capsys, "moments", "exact", "--alpha", "1", "--max-degree", "2")
    h1 = [l for l in out1.splitlines() if "config-hash" in l]
    h2 = [l for l in out2.splitlines() if "config-hash" in l]
    assert h1 != h2


NEWICK12 = "((1,2),(3,(4,5)),((6,7),((8,9),(10,(11,12)))));"


# sha256 of deterministic artifacts.  Seeded commands are left out, since numpy
# does not promise Generator streams across versions, and so is ``verify``,
# whose float residuals depend on the numpy and LAPACK builds.
@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["ford", "exact", "--alpha", "1/3", "--m", "6"],
            "0fddf7d4b0e1281dd94aed0d509e21fad6ec67a3a76589b4d3dbca2b3c1c106a",
        ),
        (
            ["tree", "nu", "--comb", "300"],
            "2f7eab502efc65810c575ba9e30f6d866cef797151b5ec69705d406f22e324b4",
        ),
        (
            ["tree", "nu", "--newick", NEWICK12],
            "8acbeebc76566ab6cc0e1bd85a0a1cac41d91e7648e86ed4b3cb362d1e1c1e88",
        ),
        (
            ["tree", "rmu", "--newick", NEWICK12],
            "205885c939dac529f48b09f8f72b6f86ffab8b3e4388dace4ba05ffa148eb7ef",
        ),
        (
            ["moments", "exact", "--alpha", "1/3", "--max-degree", "6"],
            "ea8bc94084734bd570afec4d2d6c450c9822c2831634da1a1cda8c433caad773",
        ),
        (
            ["ford", "exact", "--alpha", "0", "--m", "7"],
            "89b9c8633b64b7d76914104d20cff88931bed1338dfd25f83209f65633dfcedd",
        ),
        (
            ["ford", "exact", "--alpha", "1", "--m", "7"],
            "69fb0107dc2b678afb9e22de57f82384b29cdcdc458b717a6ffbe5af4b39f5a6",
        ),
        (
            ["ford", "exact", "--alpha", "99991/100003", "--m", "7"],
            "c0c1e99272a8ff0b41542253a8bf2db84fc6a07823095ef558dd2c9ce7532da8",
        ),
    ],
)
def test_deterministic_artifacts_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
