"""Span tracing installed from outside the package.

``install`` replaces every public function and public method (plus
``__call__``) of the sheardisp layer modules with a timing wrapper and
rebinds the names other sheardisp modules imported, so calls made inside
the package are traced too.  The source files are not touched.  Private
helpers (``_fold``, ``_mode_filter``, ...) stay unwrapped; their time is
part of the self time of the public span that called them.

Each span records name, start, end, parent span and task id.  Spans are
kept in compact arrays in memory and written out once, by ``save``, when
the benchmark ends.  Per-name call counts, total and self time, and the
work counters fed by ``HOOKS`` are accumulated as spans close, so layer
ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("ou_process", "spectral_core", "eff_diffusivity", "aris_solver",
          "monte_carlo", "invariant_measure", "cli")

# OU paths above this many nodes count as long (cost per node); shorter
# ones count per call, where call overhead dominates.
LONG_PATH_NODES = 10_000


def _bound_args(fn, a, k) -> dict:
    bound = inspect.signature(fn).bind(*a, **k)
    bound.apply_defaults()
    return bound.arguments


def _sample_ou(fn, a, k, out, counters, dur):
    n = int(out.times.size)
    counters["ou_process.sample_ou.nodes"] += n
    if n > LONG_PATH_NODES:
        counters["sample_ou.long_nodes"] += n
        counters["sample_ou.long_ns"] += dur
    else:
        counters["sample_ou.short_calls"] += 1
        counters["sample_ou.short_ns"] += dur


def _particle_steps(t_name, key):
    def hook(fn, a, k, out, counters, dur):
        args = _bound_args(fn, a, k)
        counters[key] += args["cfg"].n_particles * int(round(args[t_name] / args["cfg"].dt))
    return hook


def _solve_aris(fn, a, k, out, counters, dur):
    counters["aris_solver.solve_aris.modes"] += int(_bound_args(fn, a, k)["n_max"])


def _lambda2(fn, a, k, out, counters, dur):
    counters["eff_diffusivity.lambda2_general.terms"] += int(out.n_terms)


def _lambda11(fn, a, k, out, counters, dur):
    if out.value > 0:
        gap = abs(out.value - out.integral) / out.value
        key = "eff_diffusivity.lambda11_general.max_rel_gap"
        counters[key] = max(counters[key], gap)


def _nodes(key):
    def hook(fn, a, k, out, counters, dur):
        counters[key] += int(out.nodes.size)
    return hook


def _points(key):
    def hook(fn, a, k, out, counters, dur):
        counters[key] += int(np.size(out))
    return hook


# Work counters per wrapped name.  Hooks read sizes from results where
# they can, so the hot wrappers (lookup, velocity) never bind arguments.
HOOKS = {
    "ou_process.sample_ou": _sample_ou,
    "spectral_core.GridFunction.__call__": _points("lookup.points"),
    "spectral_core.HermiteSeries.synthesize": _points("synthesize.points"),
    "spectral_core.helmholtz_inverse": _nodes("helmholtz_inverse.nodes"),
    "spectral_core.bessel_k0": _points("bessel_k0.evals"),
    "eff_diffusivity.FlowSpec.velocity": _points("velocity.points"),
    "eff_diffusivity.lambda2_general": _lambda2,
    "eff_diffusivity.lambda11_general": _lambda11,
    "aris_solver.solve_aris": _solve_aris,
    "monte_carlo.simulate_forward": _particle_steps(
        "t_end", "monte_carlo.simulate_forward.particle_steps"),
    "monte_carlo.evaluate_point_backward": _particle_steps(
        "t", "monte_carlo.evaluate_point_backward.particle_steps"),
    "invariant_measure.pdf_random_wave": _points("pdf_random_wave.points"),
    "invariant_measure.cdf_deterministic": _points("cdf_deterministic.points"),
}


class Tracer:
    """In-memory span store plus per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.task = -1
        self.active = False
        self._stack: list[list[int]] = []   # [span id, child ns]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list[int]:
        sid = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(parent)
        self.span_task.append(self.task)
        frame = [sid, 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[int], name: str) -> int:
        end = time.perf_counter_ns()
        sid = frame[0]
        self._stack.pop()
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[1]
        return dur

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (one task)."""
        frame = self._open(self.name_id(name)) if self.active else None
        try:
            yield
        finally:
            if frame is not None:
                self._close(frame, name)

    def wrap(self, name: str, fn):
        tracer = self
        nid = self.name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not tracer.active:
                return fn(*a, **k)
            frame = tracer._open(nid)
            try:
                out = fn(*a, **k)
            finally:
                dur = tracer._close(frame, name)
            if hook is not None:
                hook(fn, a, k, out, tracer.counters, dur)
            return out

        return wrapper

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            task=np.frombuffer(self.span_task, dtype=np.int32))

    def child_share(self, child: str, parent: str, tasks=None, depth: int = 3) -> float:
        """Share of ``parent`` span time spent in ``child`` spans beneath it
        (within ``depth`` levels), optionally restricted to some task ids."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        if child not in self._ids or parent not in self._ids:
            return 0.0
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        par = np.frombuffer(self.span_parent, dtype=np.int32)
        task = np.frombuffer(self.span_task, dtype=np.int32)
        pid, cid = self._ids[parent], self._ids[child]
        keep = np.ones(names.size, dtype=bool) if tasks is None else np.isin(task, list(tasks))
        parents = (names == pid) & keep
        children = np.flatnonzero((names == cid) & keep)
        under = np.zeros(children.size, dtype=bool)
        anc = children
        for _ in range(depth):
            anc = par[anc]
            valid = anc >= 0
            under |= valid & (names[np.where(valid, anc, 0)] == pid)
            anc = np.where(valid, anc, 0)
        parent_ns = float(np.sum(end[parents] - start[parents]))
        child_ns = float(np.sum(end[children[under]] - start[children[under]]))
        return child_ns / parent_ns if parent_ns > 0 else 0.0


def install(tracer: Tracer) -> list:
    """Wrap the public surface of every layer module; return the modules."""
    modules = [importlib.import_module(f"sheardisp.{m}") for m in LAYERS]
    replaced = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replaced[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
                setattr(mod, name, replaced[id(obj)][1])
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, f"{layer}.{name}", obj)
    # names imported with ``from .x import f`` still point at the originals
    for modname, mod in list(sys.modules.items()):
        if modname == "sheardisp" or modname.startswith("sheardisp."):
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
    return modules


def _wrap_class(tracer: Tracer, qual: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__call__":
            continue
        name = f"{qual}.{attr}"
        if inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(name, val))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, val.__func__)))
        elif isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, val.__func__)))
