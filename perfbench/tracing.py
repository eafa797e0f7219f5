"""Span tracing of sphgrow's public functions, installed from outside.

`Tracer.install` replaces every public function of the ten sphgrow layer
modules (plus `TowerReal.from_log`) by a timing wrapper, in every sphgrow
namespace that holds it: `experiments` does `from .towers import
tower_compare`, so patching `towers` alone would miss those calls.
`Tracer.restore` puts the originals back.  Nothing under `src/` changes.

Spans are aggregated in memory per function: calls, inclusive time of the
outermost activation, self time (span minus child spans), and a few
counters propagated from descendants (kernel time, kernel points,
`spherical_area` calls, `iterate_orbit` calls, Mittag-Leffler series
calls).  The pass itself is the root span; its self time is
`trace.unattributed_s`, so self times plus that sum to the traced wall.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

LAYERS = ("cli", "experiments", "measures", "kernels", "functions", "towers",
          "mittag", "dynamics", "logplane", "render")
METHODS = (("towers", "TowerReal", "from_log"),)
MARK = "__perfbench_span__"

# frame layout: start, child_s, kernel_s, points, area_calls, orbit_calls,
# series_calls.  Everything after child_s propagates to the parent.
_KERNEL, _POINTS, _AREA, _ORBIT, _SERIES = 2, 3, 4, 5, 6


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth", "acc", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.acc = [0.0] * 7
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def _size(a):
    return int(np.size(a))


def _obs_logphi_batch(stat, frame, args, kwargs, result):
    frame[_POINTS] += _size(args[1])


def _obs_logphi_kernel(stat, frame, args, kwargs, result):
    n = kwargs.get("n", args[2] if len(args) > 2 else None)
    m = _size(args[0])
    stat.add("orbit_steps", m * n)
    stat.add("points", m)
    stat.add("overflow", int(np.count_nonzero(result[3])))
    stat.add("bytes", sum(np.asarray(a).nbytes for a in args[:2])
             + sum(r.nbytes for r in result))


def _obs_logmags_kernel(stat, frame, args, kwargs, result):
    n_max = kwargs.get("n_max", args[4] if len(args) > 4 else None)
    table, escape = result
    m = _size(args[0])
    stat.add("orbit_steps", m * n_max)
    stat.add("points", m)
    stat.add("overflow", int(np.count_nonzero(np.isnan(table[:, -1]))))
    stat.add("bytes", sum(np.asarray(a).nbytes for a in args[:2])
             + table.nbytes + escape.nbytes)


def _obs_mu_sup(stat, frame, args, kwargs, result):
    stat.add("evals", result.evaluations)
    stat.add("refinements", result.refinements)
    stat.add("overflow", result.overflow_points)


def _obs_area(stat, frame, args, kwargs, result):
    stat.add("cells", result.cells)
    stat.add("overflow_cells", result.overflow_cells)
    stat.extra["max_depth"] = max(stat.extra.get("max_depth", 0),
                                  result.refinements)


def _obs_orbit(stat, frame, args, kwargs, result):
    stat.add("steps", result.length() - 1)


def _obs_schedule(stat, frame, args, kwargs, result):
    stat.add("steps", len(result))


def _obs_slow_orbit(stat, frame, args, kwargs, result):
    stat.extra["precision_bits"] = max(stat.extra.get("precision_bits", 0),
                                       result.precision_bits)


def _obs_render(stat, frame, args, kwargs, result):
    stat.add("pixels", result["pixels"])
    stat.add("fast_members", result["fast_members"])


OBSERVERS = {
    "measures.logphi_batch": _obs_logphi_batch,
    "measures.mu_sup": _obs_mu_sup,
    "measures.spherical_area": _obs_area,
    "kernels.expaffine_logphi": _obs_logphi_kernel,
    "kernels.poly_logphi": _obs_logphi_kernel,
    "kernels.expaffine_logmags": _obs_logmags_kernel,
    "dynamics.iterate_orbit": _obs_orbit,
    "logplane.schedule_build": _obs_schedule,
    "logplane.slow_orbit_construct": _obs_slow_orbit,
    "render.render_escape": _obs_render,
}
_ONE_UP = {"measures.spherical_area": _AREA, "dynamics.iterate_orbit": _ORBIT,
           "mittag.ml_series": _SERIES, "mittag.ml_series_derivative": _SERIES}


def _sphgrow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sphgrow" or name.startswith("sphgrow."))]


def find_wrappers() -> list:
    """Names of traced wrappers still reachable from sphgrow namespaces."""
    found = []
    for mod in _sphgrow_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{attr}")
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"sphgrow.{layer}"), cls_name)
        if hasattr(getattr(cls, meth), MARK):
            found.append(f"sphgrow.{layer}.{cls_name}.{meth}")
    return found


class Tracer:
    """Aggregating span recorder; use `install`, `run`, `restore`."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.patches: list = []  # (owner, attribute, original)
        self.wall = 0.0
        self.unattributed = 0.0
        self._stack: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        observe = OBSERVERS.get(name)
        one_up = _ONE_UP.get(name)
        is_kernel = name.startswith("kernels.")
        perf = time.perf_counter

        def close(frame, end):
            dur = end - frame[0]
            stat.calls += 1
            stat.depth -= 1
            if stat.depth == 0:
                stat.s += dur
            stat.self_s += dur - frame[1]
            if is_kernel:
                frame[_KERNEL] = dur
            if one_up is not None:
                frame[one_up] += 1
            acc = stat.acc
            parent = stack[-1]
            parent[1] += dur
            for i in range(2, 7):
                acc[i] += frame[i]
                parent[i] += frame[i]

        def wrapper(*args, **kwargs):
            frame = [perf(), 0.0, 0.0, 0, 0, 0, 0]
            stat.depth += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf()
                stack.pop()
                close(frame, end)
                raise
            end = perf()
            stack.pop()
            if observe is not None:
                observe(stat, frame, args, kwargs, result)
            close(frame, end)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        targets = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"sphgrow.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                targets[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in _sphgrow_modules():
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"sphgrow.{layer}"), cls_name)
            raw = cls.__dict__[meth]
            self.patches.append((cls, meth, raw))
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(fn, f"{layer}.{cls_name}.{meth}")
            setattr(cls, meth, staticmethod(wrapped)
                    if isinstance(raw, staticmethod) else wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- the root span ----------------------------------------------------

    def run(self, body):
        """Run `body()` as the root span; sets `wall` and `unattributed`."""
        root = [time.perf_counter(), 0.0, 0.0, 0, 0, 0, 0]
        self._stack.append(root)
        try:
            body()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.wall = end - root[0]
            self.unattributed = self.wall - root[1]

    def total_self(self) -> float:
        return sum(st.self_s for st in self.stats.values())


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, value(view))
#
# Which wall_s each group should move, written down before measuring:
#   measures.mu_sup.*                tower-bounds; no change on orbits
#   measures.spherical_area.*        characteristics, deep-area, a little
#                                    tower-bounds; no change on orbits
#   T0 / nevanlinna_T / logphi_batch characteristics
#   kernels.*                        at most kernel_frac of any wall_s (a few %)
#   functions.*                      characteristics (log_eval), orbits (eval_f)
#   towers.*, mittag.*, dynamics.*,
#   logplane.*, render.*             orbits
#   cli / experiments                per-subcommand split of the CLI workloads
#   trace.*                          checks the tracing itself


class _View:
    def __init__(self, tracer: Tracer, overhead_s: float):
        self.t = tracer
        self.overhead_s = overhead_s
        self.empty = Stat()

    def st(self, name) -> Stat:
        return self.t.stats.get(name, self.empty)

    def calls(self, name):
        return self.st(name).calls

    def s(self, name):
        return self.st(name).s

    def self_s(self, name):
        return self.st(name).self_s

    def extra(self, name, key):
        return self.st(name).extra.get(key, 0)

    def acc(self, name, idx):
        return self.st(name).acc[idx]

    def layer_self(self, layer):
        return sum(st.self_s for name, st in self.t.stats.items()
                   if name.split(".", 1)[0] == layer)

    def bytes_computed(self):
        return sum(self.extra(f"kernels.{k}", "bytes") for k in KERNELS)


def _ratio(a, b):
    return a / b if b else 0.0


KERNELS = ("expaffine_logphi", "poly_logphi", "expaffine_logmags")
MU, AREA, T0 = "measures.mu_sup", "measures.spherical_area", "measures.ahlfors_shimizu_T0"
ML = ("mittag.ml_eval", "mittag.ml_derivative")
ORBIT, RENDER = "dynamics.iterate_orbit", "render.render_escape"

METRICS = [
    (f"{MU}.calls", "count", "lower", lambda v: v.calls(MU)),
    (f"{MU}.s", "s", "lower", lambda v: v.s(MU)),
    (f"{MU}.self_s", "s", "lower", lambda v: v.self_s(MU)),
    (f"{MU}.evals", "count", "lower", lambda v: v.extra(MU, "evals")),
    (f"{MU}.evals_per_s", "1/s", "higher",
     lambda v: _ratio(v.extra(MU, "evals"), v.s(MU))),
    (f"{MU}.refinements", "count", "lower", lambda v: v.extra(MU, "refinements")),
    (f"{MU}.overflow_frac", "ratio", "lower",
     lambda v: _ratio(v.extra(MU, "overflow"), v.extra(MU, "evals"))),
    (f"{MU}.kernel_frac", "ratio", "higher",
     lambda v: _ratio(v.acc(MU, _KERNEL), v.s(MU))),
    (f"{AREA}.calls", "count", "lower", lambda v: v.calls(AREA)),
    (f"{AREA}.s", "s", "lower", lambda v: v.s(AREA)),
    (f"{AREA}.self_s", "s", "lower", lambda v: v.self_s(AREA)),
    (f"{AREA}.cells", "count", "lower", lambda v: v.extra(AREA, "cells")),
    (f"{AREA}.cells_per_s", "1/s", "higher",
     lambda v: _ratio(v.extra(AREA, "cells"), v.s(AREA))),
    (f"{AREA}.max_depth", "count", "lower", lambda v: v.extra(AREA, "max_depth")),
    (f"{AREA}.overflow_cells", "count", "lower",
     lambda v: v.extra(AREA, "overflow_cells")),
    (f"{AREA}.kernel_frac", "ratio", "higher",
     lambda v: _ratio(v.acc(AREA, _KERNEL), v.s(AREA))),
    (f"{AREA}.evals_per_cell", "evals/cell", "lower",
     lambda v: _ratio(v.acc(AREA, _POINTS), v.extra(AREA, "cells"))),
    (f"{T0}.calls", "count", "lower", lambda v: v.calls(T0)),
    (f"{T0}.area_calls_per_T0", "calls/T0", "lower",
     lambda v: _ratio(v.acc(T0, _AREA), v.calls(T0))),
    ("measures.nevanlinna_T.s", "s", "lower", lambda v: v.s("measures.nevanlinna_T")),
    ("measures.nevanlinna_T.self_s", "s", "lower",
     lambda v: v.self_s("measures.nevanlinna_T")),
    ("measures.logphi_batch.calls", "count", "lower",
     lambda v: v.calls("measures.logphi_batch")),
    ("measures.logphi_batch.points_per_call", "points/call", "higher",
     lambda v: _ratio(v.acc("measures.logphi_batch", _POINTS),
                      v.calls("measures.logphi_batch"))),
]
for _k in KERNELS:
    _q = f"kernels.{_k}"
    METRICS += [
        (f"{_q}.calls", "count", "lower", lambda v, q=_q: v.calls(q)),
        (f"{_q}.orbit_steps", "count", "lower",
         lambda v, q=_q: v.extra(q, "orbit_steps")),
        (f"{_q}.s", "s", "lower", lambda v, q=_q: v.s(q)),
        (f"{_q}.orbit_steps_per_s", "1/s", "higher",
         lambda v, q=_q: _ratio(v.extra(q, "orbit_steps"), v.s(q))),
        (f"{_q}.overflow_frac", "ratio", "lower",
         lambda v, q=_q: _ratio(v.extra(q, "overflow"), v.extra(q, "points"))),
    ]
METRICS += [("kernels.bytes_computed", "bytes", "lower", lambda v: v.bytes_computed())]
for _f in ("iterated_max_modulus", "log_eval", "eval_f", "derivative_f"):
    METRICS.append((f"functions.{_f}.calls", "count", "lower",
                    lambda v, q=f"functions.{_f}": v.calls(q)))
METRICS += [
    ("functions.log_eval.self_s", "s", "lower", lambda v: v.self_s("functions.log_eval")),
    ("towers.tower_compare.calls", "count", "lower",
     lambda v: v.calls("towers.tower_compare")),
    ("towers.TowerReal.from_log.calls", "count", "lower",
     lambda v: v.calls("towers.TowerReal.from_log")),
    ("mittag.ml_eval.calls", "count", "lower", lambda v: v.calls(ML[0])),
    ("mittag.ml_derivative.calls", "count", "lower", lambda v: v.calls(ML[1])),
    ("mittag.calls_per_s", "1/s", "higher",
     lambda v: _ratio(sum(v.calls(q) for q in ML), sum(v.s(q) for q in ML))),
    ("mittag.series_frac", "ratio", "lower",
     lambda v: _ratio(sum(v.acc(q, _SERIES) for q in ML),
                      sum(v.calls(q) for q in ML))),
    (f"{ORBIT}.calls", "count", "lower", lambda v: v.calls(ORBIT)),
    (f"{ORBIT}.steps", "count", "lower", lambda v: v.extra(ORBIT, "steps")),
    (f"{ORBIT}.self_s", "s", "lower", lambda v: v.self_s(ORBIT)),
    (f"{ORBIT}.steps_per_s", "1/s", "higher",
     lambda v: _ratio(v.extra(ORBIT, "steps"), v.s(ORBIT))),
    ("dynamics.lyapunov_estimate.calls", "count", "lower",
     lambda v: v.calls("dynamics.lyapunov_estimate")),
    ("dynamics.log_spherical_derivative.calls", "count", "lower",
     lambda v: v.calls("dynamics.log_spherical_derivative")),
    ("logplane.schedule_build.s", "s", "lower", lambda v: v.s("logplane.schedule_build")),
    ("logplane.schedule_build.steps", "count", "lower",
     lambda v: v.extra("logplane.schedule_build", "steps")),
    ("logplane.slow_orbit_construct.s", "s", "lower",
     lambda v: v.s("logplane.slow_orbit_construct")),
    ("logplane.slow_orbit_construct.precision_bits", "bits", "lower",
     lambda v: v.extra("logplane.slow_orbit_construct", "precision_bits")),
    ("logplane.harnack_check.s", "s", "lower", lambda v: v.s("logplane.harnack_check")),
    (f"{RENDER}.s", "s", "lower", lambda v: v.s(RENDER)),
    (f"{RENDER}.pixels", "count", "higher", lambda v: v.extra(RENDER, "pixels")),
    (f"{RENDER}.pixels_per_s", "1/s", "higher",
     lambda v: _ratio(v.extra(RENDER, "pixels"), v.s(RENDER))),
    ("render.exact_tests", "count", "lower", lambda v: v.acc(RENDER, _ORBIT)),
    ("render.exact_hit_frac", "ratio", "higher",
     lambda v: _ratio(v.extra(RENDER, "fast_members"), v.acc(RENDER, _ORBIT))),
]
for _e in ("run_thm7", "run_thm5_thm6", "run_thm3", "run_thm4_scan", "run_specfun_check"):
    METRICS.append((f"experiments.{_e}.s", "s", "lower",
                    lambda v, q=f"experiments.{_e}": v.s(q)))
for _layer in LAYERS:
    METRICS.append((f"{_layer}.self_s", "s", "lower",
                    lambda v, layer=_layer: v.layer_self(layer)))
METRICS += [
    ("trace.overhead_s", "s", "lower", lambda v: v.overhead_s),
    ("trace.unattributed_s", "s", "lower", lambda v: v.t.unattributed),
]


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every METRICS value; `overhead_s` is traced minus untraced wall."""
    view = _View(tracer, overhead_s)
    return {name: {"value": float(fn(view)), "unit": unit}
            for name, unit, _, fn in METRICS}
