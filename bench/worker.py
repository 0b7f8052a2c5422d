"""One pass of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  Prints
one JSON line: the time the pass was ready to start (CLOCK_MONOTONIC, shared
with the parent), the calibration loop times, each operation's time (as
measured and scaled) and check, peak RSS and, when traced, the layer
accounting and per-layer metrics.  Spans go to
``<out-dir>/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the CLI and pool processes
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    import alphaford

    src = Path(args.src).resolve()
    if src not in Path(alphaford.__file__).resolve().parents:
        raise SystemExit(f"alphaford imported from {alphaford.__file__}, not from {src}")

    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Pass, calibrate

    setup, body, layer_metrics = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    ready_ns = time.monotonic_ns()
    cal_ready = calibrate()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns, "cal_ready": cal_ready}))
        return 0

    out_dir = Path(args.out_dir)
    p = Pass(tracer, bool(args.trace), out_dir / f"{args.workload}-artifacts", cal_ready)
    body(p, inputs)
    timed = [op for op in p.ops if op["seconds"] is not None]
    result = {
        "ready_ns": ready_ns,
        "cal_ready": cal_ready,
        "cal": p.cal,
        "wall_raw_s": sum(op["seconds"] for op in timed),
        "wall_s": sum(op["scaled_s"] for op in timed),
        "peak_rss_mb": _peak_rss_mb(),
        "digests": p.digests,
    }
    if args.trace:
        result["accounting"] = tracer.accounting()
        result["unmeasured"] = list(tracer.unmeasured)
        try:
            result["layer"] = layer_metrics(p, tracer, inputs)
        except (KeyError, IndexError, ValueError, ZeroDivisionError, StopIteration) as exc:
            # a span the metrics need is missing, e.g. a removed entry point
            result["layer"] = {}
            result["unmeasured"].append(f"{args.workload} layer metrics: {exc!r}")
        tracer.write_jsonl(out_dir / f"{args.workload}.spans.jsonl")
    result["ops"] = p.ops
    shutil.rmtree(p.out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
