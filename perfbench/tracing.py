"""Span tracing of lecollapse from outside the package.

The traced run swaps the public functions the layers call for wrappers that
record one span per call: name, start, end, parent span and op id. Nothing
under ``src/`` changes; each wrapper replaces a module attribute at the
place the caller looks it up (``runner.fp_step``, ``engine.cell_averages``,
the engine's ``laplacian`` binding and so on) and is removed afterwards.
The Poisson draw inside the engine's trajectory loop is reached by swapping
``engine.philox_stream`` for one that returns a ``Generator`` subclass with
a timed ``poisson``; it keeps the same Philox bit generator, so the draws
are bit-identical to an untraced run.

Spans stay in memory and are written out once, at the end. A span's self
time is its duration minus the part of its interval that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from time import perf_counter

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "self_times",
    "category_time",
    "op_totals",
    "layer_metrics",
    "RULES",
]


class Span:
    """One call: ``work`` is the call's size (draws, cells, RK4 steps)."""

    __slots__ = ("name", "start", "end", "parent", "op", "work", "extra")

    def __init__(self, name, start, end=0.0, parent=-1, op=-1, work=0,
                 extra=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.work = work
        self.extra = extra

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------- measures
# Each returns (work, extra) for a finished call from its arguments and
# result; they run after the span has closed.

def _run_size(args, kwargs, result):
    """Trajectories, trajectory steps, absorptions and |sum p - 1|."""
    setup = args[0] if args else kwargs["setup"]
    results = getattr(result, "results", None) or [result]
    steps = absorbed = 0
    for r in results:
        if r.collapse_time is None:
            steps += setup.max_steps
        else:
            steps += int(round(r.collapse_time / setup.dt))
            absorbed += 1
    drift = 0.0
    snaps = getattr(result, "checkpoint_p", None)
    if snaps is None and getattr(result, "trajectory", None) is not None:
        snaps = result.trajectory[:, 1:]
    if snaps is not None and np.size(snaps):
        drift = float(np.abs(np.sum(snaps, axis=-1) - 1.0).max())
    extra = {"trajectories": len(results), "absorbed": absorbed,
             "simplex_drift": drift}
    return steps, extra


def _field_cells(args, kwargs, result):
    return np.size(args[0]), None


def _density_cells(args, kwargs, result):
    return args[0].phi.size, None


def _rk4_size(args, kwargs, result):
    state, h = args[0], args[1]
    steps = kwargs.get("steps", args[3] if len(args) > 3 else 1)
    # per step: 4 generator products plus the watchdog's projector product,
    # whose nnz is one per basis state
    per_step = 4 * h.matrix.nnz + state.basis.n_basis
    return steps, {"nnz_ops": steps * per_step}


# (module, attribute, span name, measure). A function reached through two
# bindings is listed once per binding: the runner's own import, and the
# defining module for calls the benchmark makes through the public API.
PATCHES = (
    ("lecollapse.cli", "load_config", "config.load", None),
    ("lecollapse.cli", "run_experiment", "runner.run_experiment", None),
    ("lecollapse.runner", "emit_plot", "plotting.emit", None),
    ("lecollapse.runner", "run_collapse", "engine.run", _run_size),
    ("lecollapse.runner", "run_ensemble", "engine.run", _run_size),
    ("lecollapse.engine", "run_ensemble", "engine.run", _run_size),
    ("lecollapse.engine", "_laplacian", "wave.laplacian", None),
    ("lecollapse.engine", "cell_averages", "wave.cell_averages", None),
    ("lecollapse.runner", "kpp_step", "wave.kpp_step", _field_cells),
    ("lecollapse.runner", "front_position", "wave.front_track", None),
    ("lecollapse.runner", "front_width", "wave.front_track", None),
    ("lecollapse.runner", "fp_step", "fokker_planck.fp_step", _density_cells),
    ("lecollapse.runner", "boundary_current",
     "fokker_planck.boundary_current", None),
    ("lecollapse.runner", "build_branch_hamiltonian", "exact.build", None),
    ("lecollapse.exact", "build_branch_hamiltonian", "exact.build", None),
    ("lecollapse.runner", "evolve", "exact.evolve", _rk4_size),
    ("lecollapse.exact", "evolve", "exact.evolve", _rk4_size),
    ("lecollapse.runner", "le_occupation", "exact.observe", None),
    ("lecollapse.runner", "local_probabilities", "exact.observe", None),
    ("lecollapse.runner", "reconstruct_standard", "exact.observe", None),
    ("lecollapse.exact", "le_occupation", "exact.observe", None),
    ("lecollapse.exact", "reconstruct_standard", "exact.observe", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name, op=None):
        """Record a span around a block; ``op`` also sets the current op."""
        if op is not None:
            self.op = op
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, perf_counter(), parent=parent, op=self.op)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, measure=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            s = Span(name, perf_counter(), parent=stack[-1] if stack else -1,
                     op=self.op)
            spans.append(s)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = perf_counter()
                stack.pop()
            if measure is not None:
                s.work, s.extra = measure(args, kwargs, result)
            return result

        return traced

    def _timed_philox(self, philox_stream):
        tracer = self

        class TimedGenerator(np.random.Generator):
            def poisson(self, lam=1.0, size=None):
                with tracer.span("engine.poisson") as s:
                    out = super().poisson(lam, size)
                s.work = out.size if isinstance(out, np.ndarray) else 1
                return out

        @functools.wraps(philox_stream)
        def traced_stream(seed, stream=0):
            # same bit generator, untouched: the stream is unchanged
            return TimedGenerator(philox_stream(seed, stream).bit_generator)

        return traced_stream

    @contextlib.contextmanager
    def installed(self):
        """Swap every patch in, and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, measure in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, measure))
            engine = importlib.import_module("lecollapse.engine")
            saved.append((engine, "philox_stream", engine.philox_stream))
            engine.philox_stream = self._timed_philox(engine.philox_stream)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write every span as one CSV line, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,name,parent,start_s,end_s,work\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.op},{s.name},{s.parent},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f},{s.work}\n")


# -------------------------------------------------------------- arithmetic

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted((max(spans[k].start, s.start),
                            min(spans[k].end, s.end)) for k in kids):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def category_time(spans, names, idx=None) -> float:
    """Time in spans named in ``names``; a span nested in another counts once.

    ``idx`` restricts the sum to those positions of ``spans`` (one op).
    """
    names = set(names)
    total = 0.0
    for i in range(len(spans)) if idx is None else idx:
        s = spans[i]
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.duration
    return total


FIELD_STEP = ("wave.laplacian", "wave.cell_averages")

# per-op totals: key -> span names whose time, calls or work it sums
_TIMES = {
    "op_s": ("op",),
    "engine.run_s": ("engine.run",),
    "engine.poisson_s": ("engine.poisson",),
    "wave.kpp_step_s": ("wave.kpp_step",),
    "wave.front_track_s": ("wave.front_track",),
    "wave.field_step_s": FIELD_STEP,
    "fokker_planck.fp_step_s": ("fokker_planck.fp_step",),
    "fokker_planck.boundary_current_s": ("fokker_planck.boundary_current",),
    "fokker_planck.total_s": ("fokker_planck.fp_step",
                              "fokker_planck.boundary_current"),
    "exact.build_s": ("exact.build",),
    "exact.evolve_s": ("exact.evolve",),
    "exact.observe_s": ("exact.observe",),
    "exact.total_s": ("exact.build", "exact.evolve", "exact.observe"),
    "config.load_s": ("config.load",),
    "runner.run_experiment_s": ("runner.run_experiment",),
    "plotting.emit_s": ("plotting.emit",),
}
_SELF = {
    "engine.self_s": "engine.run",
    "runner.self_s": "runner.run_experiment",
}
_CALLS = {
    "engine.poisson_calls": ("engine.poisson",),
    "wave.kpp_step_calls": ("wave.kpp_step",),
    "wave.front_track_calls": ("wave.front_track",),
    "wave.field_step_calls": FIELD_STEP,
    "fokker_planck.fp_step_calls": ("fokker_planck.fp_step",),
    "fokker_planck.boundary_current_calls": ("fokker_planck.boundary_current",),
    "exact.build_calls": ("exact.build",),
    "plotting.emit_calls": ("plotting.emit",),
}
_WORK = {
    "engine.poisson_draws": "engine.poisson",
    "engine.trajectory_steps": "engine.run",
    "wave.cell_steps": "wave.kpp_step",
    "fokker_planck.cell_steps": "fokker_planck.fp_step",
    "exact.rk4_steps": "exact.evolve",
}
_EXTRA = {  # key -> (span name, extra field, fold)
    "engine.trajectories": ("engine.run", "trajectories", sum),
    "engine.absorbed": ("engine.run", "absorbed", sum),
    "engine.simplex_drift_max": ("engine.run", "simplex_drift", max),
    "exact.nnz_ops": ("exact.evolve", "nnz_ops", sum),
}


def op_totals(spans) -> dict[int, dict[str, float]]:
    """Per op id: the time, calls and work of every layer."""
    selfs = self_times(spans)
    index: dict[int, dict[str, list[int]]] = {}  # op -> name -> positions
    for i, s in enumerate(spans):
        index.setdefault(s.op, {}).setdefault(s.name, []).append(i)
    out = {}
    for op, by_name in index.items():
        def at(*names):
            return [i for n in names for i in by_name.get(n, ())]

        t = {k: category_time(spans, names, at(*names))
             for k, names in _TIMES.items()}
        for key, name in _SELF.items():
            t[key] = sum((selfs[i] for i in at(name)), 0.0)
        for key, names in _CALLS.items():
            t[key] = len(at(*names))
        for key, name in _WORK.items():
            t[key] = sum(spans[i].work for i in at(name))
        for key, (name, field, fold) in _EXTRA.items():
            vals = [spans[i].extra[field] for i in at(name)
                    if spans[i].extra is not None]
            t[key] = fold(vals) if vals else 0
        t["exact.matvecs"] = 5 * t["exact.rk4_steps"]
        out[op] = t
    return out


# How each per-layer metric is made from the per-op totals, keyed by name;
# BENCHMARK.json's ``per_layer`` gives the names and units to report. A
# name not listed here is the median over traced ops of its per-op value.
# ("rate", num, den, scale) divides totals over all traced ops; "max" is
# the largest per-op value; "harness" is supplied by the run loop.
RULES = {
    "engine.ns_per_draw": ("rate", "engine.poisson_s", "engine.poisson_draws",
                           1e9),
    "engine.us_per_trajectory_step": ("rate", "engine.run_s",
                                      "engine.trajectory_steps", 1e6),
    "engine.absorbed_frac": ("rate", "engine.absorbed", "engine.trajectories",
                             1.0),
    "engine.simplex_drift_max": "max",
    "wave.ns_per_cell_step": ("rate", "wave.kpp_step_s", "wave.cell_steps",
                              1e9),
    "fokker_planck.ns_per_cell_step": ("rate", "fokker_planck.fp_step_s",
                                       "fokker_planck.cell_steps", 1e9),
    "fokker_planck.us_per_boundary_current": (
        "rate", "fokker_planck.boundary_current_s",
        "fokker_planck.boundary_current_calls", 1e6),
    "exact.us_per_rk4_step": ("rate", "exact.evolve_s", "exact.rk4_steps",
                              1e6),
    "trace.core_share": ("rate", "core_s", "op_s", 1.0),
    "trace.overhead": "harness",
}


def layer_metrics(per_op: list[dict], specs) -> tuple[dict, dict]:
    """(metrics, spreads) from per-op totals.

    ``specs`` lists the (name, unit) of every per-layer metric to report.
    ``metrics`` maps each name except the harness-supplied ones to
    {"value", "unit"}; ``spreads`` gives the quartile distance across ops of
    each median time metric, for the human-readable report.
    """
    metrics, spreads = {}, {}
    for name, unit in specs:
        rule = RULES.get(name, "median")
        if rule == "harness":
            continue
        if rule == "median":
            vals = [t[name] for t in per_op]
            value = statistics.median(vals)
            if unit == "s" and len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spreads[name] = q[2] - q[0]
        elif rule == "max":
            value = max(t[name] for t in per_op)
        else:
            _, num, den, scale = rule
            den_total = sum(t[den] for t in per_op)
            value = (scale * sum(t[num] for t in per_op) / den_total
                     if den_total else 0.0)
        if unit == "count":
            value = int(value) if float(value).is_integer() else value
        metrics[name] = {"value": value, "unit": unit}
    return metrics, spreads
