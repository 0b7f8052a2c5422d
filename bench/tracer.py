"""Spans around calls into alphaford's layers, recorded from outside the package.

A :class:`Tracer` wraps a fixed list of public functions, methods and
properties of the package modules at run time.  Each call records one span:
its name, start, end and parent.  Spans stay in memory (flat arrays, so a
pass with ~400k spans costs ~10 MB) and are written as JSON lines when the
pass ends.  Spans are recorded only inside the benchmark's own operation
spans, so correctness checks and probes between operations stay out of the
accounting.  An entry point that no longer exists is reported as unmeasured
instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

# layer -> (module, span nested calls from the same layer?, entry points).
# The cladogram layer records only calls that enter it from another layer:
# its own delete/insert -> constructor -> key traffic would otherwise add a
# span per internal call (~200k per exact pass) without changing attribution.
ENTRY_POINTS = {
    "cladogram": (
        "alphaford.cladogram",
        False,
        (
            "enumerate_cladograms",
            "Cladogram.__init__",
            "Cladogram.key",
            "Cladogram.insert_leaf",
            "Cladogram.delete_leaf",
            "Cladogram.cherries",
        ),
    ),
    "tree": (
        "alphaford.tree",
        True,
        (
            "FiniteMeasureTree.index",
            "FiniteMeasureTree.branch_point_distribution",
            "FiniteMeasureTree.quartet_partners",
            "FiniteMeasureTree.triple_component_counts",
            "FiniteMeasureTree.sample_distinct_leaves",
        ),
    ),
    "ford": (
        "alphaford.ford",
        True,
        ("sample_ford_tree", "exact_distribution", "deletion_stability_check"),
    ),
    "chain": (
        "alphaford.chain",
        True,
        (
            "forward_rate_matrix",
            "backward_rate_matrix",
            "verify_invariance",
            "verify_beta_is_rate_discrepancy",
            "verify_feynman_kac",
            "matrix_exponential",
            "estimate_shape_vector",
            "verify_chain_diffusion_duality",
            "ChainState.__init__",
            "ChainState.run_until",
            "ChainState.as_tree",
        ),
    ),
    "moments": (
        "alphaford.moments",
        True,
        (
            "moment",
            "kingman_closed_form",
            "kingman_beta_moment",
            "kingman_univariate",
            "crt_dirichlet_moment",
            "comb_moment",
            "estimate_mass_moments",
        ),
    ),
    "rng": ("alphaford._rng", True, ("stream",)),
}

BENCH = "bench"
_NULL_REGION = contextlib.nullcontext()


class NullTracer:
    """Untraced runs: operation regions cost one call and record nothing."""

    def op(self, name: str):
        return _NULL_REGION

    def region(self, name: str, layer: str):
        return _NULL_REGION


class Tracer:
    """Spans of one pass, kept in flat arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")  # integer return value of the call, else -1
        self._stack = [-1]
        self._layers = [None]
        self.active = False
        self.unmeasured: list[str] = []
        self._ops: dict[str, int] | None = None

    # -- recording -----------------------------------------------------------

    def _id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _open(self, nid: int, layer: str) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(-1)
        self.end.append(0)
        self._stack.append(i)
        self._layers.append(layer)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._layers.pop()

    def region(self, name: str, layer: str):
        return _Region(self, self._id(name, layer), layer)

    def op(self, name: str):
        """One timed operation of a workload; spans are recorded only inside."""
        return _Region(self, self._id("op:" + name, BENCH), BENCH, activate=True)

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS; missing ones are noted."""
        for layer, (modname, nested, paths) in ENTRY_POINTS.items():
            module = importlib.import_module(modname)
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.unmeasured.append(f"{modname}.{path}: not found")
                    continue
                nid = self._id(f"{layer}.{path}", layer)
                if isinstance(raw, property):
                    setattr(owner, attr, property(self._wrap(raw.fget, nid, layer, nested)))
                elif owner_name:
                    setattr(owner, attr, self._wrap(raw, nid, layer, nested))
                else:
                    wrapped = self._wrap(raw, nid, layer, nested)
                    # rebind every alias, e.g. chain's `from ... import enumerate_cladograms`
                    for mod in list(sys.modules.values()):
                        if getattr(mod, "__name__", "").startswith("alphaford"):
                            for name, val in list(vars(mod).items()):
                                if val is raw:
                                    setattr(mod, name, wrapped)

    def _wrap(self, fn, nid: int, layer: str, nested: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (not nested and tracer._layers[-1] == layer):
                return fn(*args, **kwargs)
            i = tracer._open(nid, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if type(out) is int:
                tracer.value[i] = out
            return out

        return traced

    # -- queries ------------------------------------------------------------------

    def duration(self, i: int) -> float:
        return (self.end[i] - self.start[i]) / 1e9

    def op_span(self, name: str) -> int:
        """The span of operation ``name`` (operations run once per pass)."""
        if self._ops is None:
            self._ops = {
                self.names[self.name[i]][3:]: i
                for i in range(len(self.start))
                if self.parent[i] < 0
            }
        return self._ops[name]

    def spans(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i in range(len(self.name)) if self.name[i] == nid]

    def descendants(self, i: int, name: str) -> list[int]:
        """Spans called ``name`` inside span ``i`` (spans nest in start order)."""
        nid = self._ids.get(name)
        out = []
        j = i + 1
        end = self.end[i]
        while j < len(self.start) and self.start[j] < end:
            if self.name[j] == nid:
                out.append(j)
            j += 1
        return out

    def accounting(self) -> dict:
        """Self time per layer over all operation spans, the benchmark's own
        time inside them, and their total (the traced wall time)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns: dict[str, int] = {}
        wall = 0
        for i in range(n):
            layer = self.layer_of[self.name[i]]
            d = self.end[i] - self.start[i]
            self_ns[layer] = self_ns.get(layer, 0) + d - child[i]
            if self.parent[i] < 0:
                wall += d
        return {
            "wall_s": wall / 1e9,
            "self_s": {k: v / 1e9 for k, v in self_ns.items() if k != BENCH},
            "bench_overhead_s": self_ns.get(BENCH, 0) / 1e9,
            "spans": n,
        }

    def write_jsonl(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                nid = self.name[i]
                fh.write(
                    f'{{"id":{i},"name":"{self.names[nid]}","parent":{self.parent[i]},'
                    f'"start_ns":{self.start[i] - t0},"end_ns":{self.end[i] - t0}}}\n'
                )


class _Region:
    __slots__ = ("tracer", "nid", "layer", "activate", "i")

    def __init__(self, tracer: Tracer, nid: int, layer: str, activate: bool = False):
        self.tracer, self.nid, self.layer, self.activate = tracer, nid, layer, activate

    def __enter__(self):
        if self.activate:
            self.tracer.active = True
        if self.tracer.active:
            self.i = self.tracer._open(self.nid, self.layer)
        return self

    def __exit__(self, *exc):
        if self.tracer.active:
            self.tracer._close(self.i)
        if self.activate:
            self.tracer.active = False
        return False
