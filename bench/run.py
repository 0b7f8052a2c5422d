"""alphaford benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 bench/run.py --workload exact --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Run from the root of a checkout; the package is imported from its ``src``.
Every pass runs in a fresh interpreter (bench/worker.py), so caches never
carry over and set-up is paid each time.  With ``--trace 0`` the run repeats
passes of one workload for ``--seconds`` and reports medians; with
``--trace 1`` it runs one traced pass of every workload, which gives every
per-layer metric, plus one untraced pass of the named workload, which gives
the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CAL_REF_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact", "chain", "bigtree", "cli")
MIN_SETUPS = 7
# printed next to the metrics, not listed in BENCHMARK.json
EXTRA_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "host_slowdown": "x"}
DEADLINE_S = 170.0  # every run ends within 180 s; a pass still going then is killed


class RunError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter; returns its result plus its set-up
    time, as measured and scaled by the calibration loops that bracket it."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--trace", str(trace), "--src", str(SRC), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cal_before = calibrate()
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)  # the worker and the CLI processes it started
        proc.communicate()
        raise RunError(f"{workload} pass did not finish before the deadline")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise RunError(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["scaled_s"] = {op["name"]: op["scaled_s"] for op in result.get("ops", []) if op["seconds"] is not None}
    result["setup_raw_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    result["setup_s"] = result["setup_raw_s"] * 2 * CAL_REF_S / (cal_before + result["cal_ready"])
    result["process_s"] = (time.monotonic_ns() - spawn_ns) / 1e9
    return result


def _reap_group(pgid: int) -> None:
    """Stop anything the pass left running in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a plain source tree must not report an enclosing repository
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _count(passes) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    failures = [f"{op['name']}: {op['detail']}" for op in ops if not op["ok"]]
    return len(ops), len(failures), failures


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, int, int, list]:
    """Untraced passes for ``seconds``.  ``wall_s`` sums each operation's
    median over the passes, so one slow operation in one pass does not move it;
    ``setup_s`` is the median set-up."""
    start = time.monotonic()
    passes = []
    while True:
        passes.append(spawn(workload, seed, 0, deadline))
        typical = statistics.median(p["process_s"] for p in passes)
        if time.monotonic() - start >= seconds or time.monotonic() + 2 * typical > deadline:
            break
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, 0, deadline, setup_only=True))
    attempted, failed, failures = _count(passes)
    # artifacts of a run must not change from pass to pass (same inputs)
    for p in passes[1:]:
        for name, digest in passes[0]["digests"].items():
            attempted += 1
            if p["digests"].get(name) != digest:
                failed += 1
                failures.append(f"{name}: artifact differs from the first pass")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": sum(
            statistics.median(p["scaled_s"][name] for p in passes) for name in passes[0]["scaled_s"]
        ),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in setups),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "host_slowdown": statistics.median(c for p in passes for c in p["cal"]) / CAL_REF_S,
    }
    print(
        f"# {workload}: {len(passes)} passes, {len(setups)} set-ups, "
        f"wall_s per pass {[round(p['wall_s'], 4) for p in passes]}, "
        f"as measured {[round(p['wall_raw_s'], 4) for p in passes]}"
    )
    return metrics, attempted, failed, failures


def trace_run(workload: str, seed: int, deadline: float) -> tuple[dict, int, int, list]:
    """One untraced pass of ``workload``, then one traced pass of every workload."""
    untraced = spawn(workload, seed, 0, deadline)
    traced = {w: spawn(w, seed, 1, deadline) for w in WORKLOADS}
    attempted, failed, failures = _count([untraced, *traced.values()])
    metrics = {}
    for w, res in traced.items():
        acc = res["accounting"]
        self_total = sum(acc["self_s"].values())
        print(
            f"# trace {w}: traced wall {acc['wall_s']:.4f} s = layer self {self_total:.4f} s "
            f"+ benchmark overhead {acc['bench_overhead_s']:.4f} s; {acc['spans']} spans "
            f"in {OUT.name}/{w}.spans.jsonl"
        )
        for layer, s in sorted(acc["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   self {layer:<10} {s:10.4f} s  {100 * s / acc['wall_s']:5.1f} %")
            metrics[f"trace.{w}.self_s.{layer}"] = s
        metrics[f"trace.{w}.wall_s"] = acc["wall_s"]
        metrics[f"trace.{w}.bench_overhead_s"] = acc["bench_overhead_s"]
        metrics.update(res["layer"])
        for note in res["unmeasured"]:
            print(f"# unmeasured: {note}")
    overhead = traced[workload]["wall_s"] - untraced["wall_s"]
    print(f"# trace {workload}: tracing overhead {overhead:.4f} s on {untraced['wall_s']:.4f} s untraced (scaled)")
    metrics["trace.overhead_s"] = overhead
    return metrics, attempted, failed, failures


def report(metrics: dict, trace: int, workload: str) -> dict:
    """Print every metric with its unit from BENCHMARK.json; return exactly the
    metrics it lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {units.get(name) or EXTRA_UNITS.get(name, '')}")
    for m in listed:
        if m["name"] not in metrics:
            print(f"# unmeasured: {m['name']}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in metrics}


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    prov = provenance(workload, seed)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    if trace:
        metrics, attempted, failed, failures = trace_run(workload, seed, deadline)
    else:
        metrics, attempted, failed, failures = measure(workload, seed, seconds, deadline)
    for f in failures:
        print(f"# FAILED {f}")
    print(f"{workload}: error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(metrics, trace, workload),
    }
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"provenance": prov, "failures": failures, **result}, indent=1) + "\n"
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "alphaford" / "__init__.py").is_file():
        print(f"no alphaford package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            results = {}
            for w in WORKLOADS:
                results[w] = run_one(w, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()},
            }
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
