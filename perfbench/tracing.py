"""Span tracing of the lrdmd layers, installed from outside the package.

Every public function of a layer module is rebound, in each ``lrdmd``
module namespace and module-level dict that holds it (``from .linalg
import thin_svd`` copies the binding into ``solver``, ``benchmarks``, ``cli``
..., and ``SOLVERS`` holds the solver functions), to a wrapper that records
a span: name, parent span, operation id, start and end.  Leaving the
``installed()`` block restores the original bindings, so untraced passes
run the unmodified program.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from lrdmd import audit

LAYERS = ("cli", "io", "benchmarks", "rb", "solver", "linalg", "reduced", "svgplot")

# Spans reported under one name.
ALIASES = {
    "io.save_factored": "io.save_model",
    "io.save_reduced": "io.save_model",
    "io.save_spectral": "io.save_model",
}

RK4_FUNCS = ("rb.simulate_fields", "rb.simulate_linear_fields")
SOLVER_FUNCS = (
    "solver.optimal_lowrank",
    "solver.optimal_error_closed_form",
    "solver.truncated_baseline",
    "solver.projected_dmd_baseline",
    "solver.first_order_residual",
)
SIM_FUNCS = ("reduced.simulate_spectral", "reduced.simulate_reduced", "reduced.simulate_operator")
IO_FUNCS = ("io.read_dataset", "io.write_dataset", "io.save_model", "io.load_model")


def _dataset_bytes(directory) -> int:
    from lrdmd import io as lio

    d = Path(directory)
    return sum((d / f).stat().st_size for f in (lio.MANIFEST_NAME, lio.X_NAME, lio.Y_NAME))


def _count_rk4(counts, name, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts[name + ".rk4_steps"] += (result.shape[0] - 1) * cfg.sample_stride


def _count_steps(counts, name, args, kwargs, result):
    counts[name + ".steps"] += result.T


def _count_cells(counts, name, args, kwargs, result):
    counts[name + ".cells"] += result.ks.size * len(result.errors)


def _count_dataset_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += _dataset_bytes(args[0] if args else kwargs["directory"])


def _count_file_bytes(counts, name, args, kwargs, result):
    counts[ALIASES.get(name, name) + ".bytes"] += Path(args[0] if args else kwargs["path"]).stat().st_size


COUNTERS = {
    **dict.fromkeys(RK4_FUNCS, _count_rk4),
    **dict.fromkeys(SIM_FUNCS, _count_steps),
    "benchmarks.error_sweep": _count_cells,
    "io.read_dataset": _count_dataset_bytes,
    "io.write_dataset": _count_dataset_bytes,
    "io.save_factored": _count_file_bytes,
    "io.save_reduced": _count_file_bytes,
    "io.save_spectral": _count_file_bytes,
    "io.load_model": _count_file_bytes,
}


def _tally_key(name: str) -> str | None:
    """Which audit tally a call feeds: the outermost solver call, or a simulator."""
    if name.startswith("solver."):
        return "solver"
    if name in SIM_FUNCS:
        return "reduced"
    return None


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op id, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.max_elements = 0
        self.op = -1
        self._stack: list[int] = []
        self._tallying: set[str] = set()

    def new_op(self) -> None:
        """Start a new operation; later spans share its id."""
        self.op += 1

    def _wrap(self, fn, name):
        spans, stack, tallying = self.spans, self._stack, self._tallying
        count = COUNTERS.get(name)
        key = _tally_key(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            own_tally = key is not None and key not in tallying
            if own_tally:
                tallying.add(key)
            try:
                with audit.tally() if own_tally else nullcontext() as tally:
                    rec[3] = perf_counter()
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        rec[4] = perf_counter()
            finally:
                stack.pop()
                if own_tally:
                    tallying.discard(key)
            if own_tally:
                tracer.counts[key + ".multiply_adds"] += tally.multiply_adds
                if key == "solver":
                    tracer.max_elements = max(tracer.max_elements, tally.max_elements)
            if count is not None:
                count(tracer.counts, name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every public layer function to its traced wrapper."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lrdmd.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        undo = []
        seen_dicts = set()

        def rebind(container: dict) -> None:
            for key, val in list(container.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    undo.append((container, key, val))
                    container[key] = hit[1]

        for modname, mod in list(sys.modules.items()):
            if modname != "lrdmd" and not modname.startswith("lrdmd."):
                continue
            ns = vars(mod)
            rebind(ns)
            for attr, val in list(ns.items()):
                if isinstance(val, dict) and not attr.startswith("__") and id(val) not in seen_dicts:
                    seen_dicts.add(id(val))
                    rebind(val)
        try:
            yield self
        finally:
            for container, key, val in reversed(undo):
                container[key] = val

    def layer_metrics(self, traced_run_s: list[float]) -> dict[str, float]:
        """Per-pass layer totals and self-time shares of the traced passes' wall time."""
        passes = len(traced_run_s)
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, parent, _op, t0, t1 in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        in_sweep = [False] * len(self.spans)
        svd_in_sweep = 0
        for i, (name, parent, _op, t0, t1) in enumerate(self.spans):
            key = ALIASES.get(name, name)
            calls[key] += 1
            secs[key] += t1 - t0
            self_s[name.split(".", 1)[0]] += (t1 - t0) - child_s[i]
            if parent >= 0:
                in_sweep[i] = in_sweep[parent] or self.spans[parent][0] == "benchmarks.error_sweep"
            if name == "linalg.thin_svd" and in_sweep[i]:
                svd_in_sweep += 1

        def per_pass(value: float) -> float:
            return value / passes

        out: dict[str, float] = {}

        def timed(name: str) -> None:
            out[f"{name}.calls"] = per_pass(calls[name])
            out[f"{name}.s"] = per_pass(secs[name])

        for name in RK4_FUNCS:
            timed(name)
            out[f"{name}.rk4_steps"] = per_pass(self.counts[f"{name}.rk4_steps"])
        rk4_steps = sum(self.counts[f"{n}.rk4_steps"] for n in RK4_FUNCS)
        rk4_s = sum(secs[n] for n in RK4_FUNCS)
        out["rb.us_per_rk4_step"] = 1e6 * rk4_s / rk4_steps if rk4_steps else 0.0
        timed("linalg.thin_svd")
        cells = self.counts["benchmarks.error_sweep.cells"]
        out["linalg.thin_svd.per_sweep_cell"] = svd_in_sweep / cells if cells else 0.0
        for name in SOLVER_FUNCS:
            timed(name)
        out["benchmarks.error_sweep.s"] = per_pass(secs["benchmarks.error_sweep"])
        out["benchmarks.error_sweep.cells"] = per_pass(cells)
        out["solver.multiply_adds"] = per_pass(self.counts["solver.multiply_adds"])
        out["solver.max_elements"] = float(self.max_elements)
        sim_steps = 0.0
        for name in SIM_FUNCS:
            timed(name)
            out[f"{name}.steps"] = per_pass(self.counts[f"{name}.steps"])
            sim_steps += self.counts[f"{name}.steps"]
        madds = self.counts["reduced.multiply_adds"]
        out["reduced.multiply_adds_per_step"] = madds / sim_steps if sim_steps else 0.0
        timed("reduced.build_spectral_model")
        timed("linalg.eig_nonsymmetric")
        for name in IO_FUNCS:
            timed(name)
            out[f"{name}.bytes"] = per_pass(self.counts[f"{name}.bytes"])
        for name in ("benchmarks.gen_physical", "svgplot.error_chart"):
            out[f"{name}.s"] = per_pass(secs[name])
        total = sum(traced_run_s)
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = 100.0 * self_s[layer] / total
        out["unaccounted.pct"] = 100.0 - sum(out[f"{layer}.self_pct"] for layer in LAYERS)
        out["trace.spans"] = per_pass(len(self.spans))
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, parent, op, start, end] (seconds, perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "op", "start", "end"], "spans": self.spans}, fh)

