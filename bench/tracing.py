"""Span tracing for the traced benchmark run.

Timing wrappers are installed on the module attributes each caller looks
up.  Many names are bound by ``from .x import f``, so one function is
wrapped in every namespace that holds it (``find_w`` in ``models``,
``bounds``, ``trajectory`` and the package).  A wrapper whose target is
missing at some commit is skipped, and every metric built only from
skipped spans is reported as absent (value ``None``) instead of failing.

Spans (name, start, end, parent, job id) are kept in compact arrays in
memory and written out when the run ends.  A span's self time is its
duration minus the time covered by its child spans.  Nothing under
``src/`` is changed; uninstall() restores every original attribute.
"""

from __future__ import annotations

import array
import functools
import importlib
import time

import numpy as np

#: span name -> the (module, attribute) pairs it wraps.  A dotted
#: attribute names a method on a class of the module.
SPANS = {
    "cli.main": [("starphase.cli", "main")],
    "models.model": [("starphase.models", "make_model"),
                     ("starphase.models", "model"),
                     ("starphase.cli", "make_model"),
                     ("starphase.bounds", "make_model"),
                     ("starphase.astro", "make_model"),
                     ("starphase", "model"), ("starphase", "make_model")],
    "models.find_z": [("starphase.models", "find_z"),
                      ("starphase.bounds", "find_z"), ("starphase", "find_z")],
    "models.find_w": [("starphase.models", "find_w"),
                      ("starphase.bounds", "find_w"),
                      ("starphase.trajectory", "find_w"),
                      ("starphase", "find_w")],
    "models.find_x0": [("starphase.models", "find_x0"),
                       ("starphase", "find_x0")],
    "models.equilibrium": [("starphase.models", "equilibrium"),
                           ("starphase.cli", "equilibrium"),
                           ("starphase", "equilibrium")],
    "rootfind.solve": [("starphase.rootfind", "solve_bracketed"),
                       ("starphase.models", "solve_bracketed"),
                       ("starphase.rootfind", "solve_in"),
                       ("starphase.bounds", "solve_in"),
                       ("starphase.trajectory", "solve_in")],
    "integrate": [("starphase.integrate", "integrate_adaptive")],
    "trajectory.shoot": [("starphase.trajectory", "shoot_heteroclinic"),
                         ("starphase.cli", "shoot_heteroclinic"),
                         ("starphase.astro", "shoot_heteroclinic"),
                         ("starphase", "shoot_heteroclinic")],
    "trajectory.to_csv": [("starphase.trajectory", "Trajectory.to_csv")],
    "trajectory.trap": [("starphase.trajectory", "check_trap_region"),
                        ("starphase", "check_trap_region")],
    "trajectory.isocline": [("starphase.trajectory", "isocline_x"),
                            ("starphase", "isocline_x")],
    "lyapunov.value": [("starphase.lyapunov", "lyapunov_value"),
                       ("starphase.trajectory", "lyapunov_value"),
                       ("starphase", "lyapunov_value")],
    "lyapunov.grid": [("starphase.lyapunov", "level_set_grid"),
                      ("starphase.portrait", "level_set_grid"),
                      ("starphase", "level_set_grid")],
    "lyapunov.H": [("starphase.lyapunov", "H"), ("starphase.bounds", "H"),
                   ("starphase", "H")],
    "bounds.bound_X": [("starphase.bounds", "bound_X"),
                       ("starphase.cli", "bound_X"),
                       ("starphase.astro", "bound_X"),
                       ("starphase", "bound_X")],
    "bounds.hypotheses": [("starphase.bounds", "check_hypotheses")],
    "bounds.invert_H": [("starphase.bounds", "invert_H"),
                        ("starphase", "invert_H")],
    "bounds.sweep": [("starphase.bounds", "kappa_sweep"),
                     ("starphase.cli", "kappa_sweep"),
                     ("starphase", "kappa_sweep")],
    "lambertw": [("starphase.lambertw", "lambert_w"),
                 ("starphase.bounds", "lambert_w"), ("starphase", "lambert_w")],
    "stability.report": [("starphase.stability", "stability_report"),
                         ("starphase.cli", "stability_report"),
                         ("starphase", "stability_report")],
    "portrait.field_grid": [("starphase.portrait", "field_grid")],
    "portrait.marching": [("starphase.portrait", "marching_squares")],
    "portrait.svg": [("starphase.portrait", "portrait_svg"),
                     ("starphase.cli", "portrait_svg")],
    "portrait.csv": [("starphase.portrait", "portrait_csv"),
                     ("starphase.cli", "portrait_csv")],
    "astro.masstable": [("starphase.astro", "mass_radius_table"),
                        ("starphase.cli", "mass_radius_table"),
                        ("starphase", "mass_radius_table")],
    "astro.to_physical": [("starphase.astro", "to_physical"),
                          ("starphase", "to_physical")],
}

#: spans opened around the callables handed to integrate_adaptive; they
#: exist whenever the integrate span does
ARGUMENT_SPANS = ("trajectory.field", "trajectory.stop")

_VERIFY = ("models.find_z", "models.find_w", "models.find_x0",
           "models.equilibrium")

#: per-layer metric -> (unit, kind, spans).  Kinds: ``self_ms`` is the
#: mean self time per job, ``calls`` the mean span count per job,
#: ``count`` a counter summed over the run and divided by the jobs.
LAYER_METRICS = {
    "cli.self_ms": ("ms/job", "self_ms", ("cli.main",)),
    "models.model.self_ms": ("ms/job", "self_ms", ("models.model",)),
    "models.find_w.calls": ("count/job", "calls", ("models.find_w",)),
    "models.verify.self_ms": ("ms/job", "self_ms", _VERIFY),
    "rootfind.solves": ("count/job", "calls", ("rootfind.solve",)),
    "rootfind.self_ms": ("ms/job", "self_ms", ("rootfind.solve",)),
    "integrate.calls": ("count/job", "calls", ("integrate",)),
    "integrate.steps": ("count/job", "count", ("integrate",)),
    "integrate.rejected": ("count/job", "count", ("integrate",)),
    "integrate.nfev": ("count/job", "calls", ("trajectory.field",)),
    "integrate.self_ms": ("ms/job", "self_ms", ("integrate",)),
    "trajectory.field.self_ms": ("ms/job", "self_ms", ("trajectory.field",)),
    "trajectory.stop.calls": ("count/job", "calls", ("trajectory.stop",)),
    "trajectory.stop.self_ms": ("ms/job", "self_ms", ("trajectory.stop",)),
    "trajectory.shoot.self_ms": ("ms/job", "self_ms", ("trajectory.shoot",)),
    "trajectory.to_csv.self_ms": ("ms/job", "self_ms", ("trajectory.to_csv",)),
    "trajectory.trap.self_ms": ("ms/job", "self_ms", ("trajectory.trap",)),
    "trajectory.isocline.calls": ("count/job", "calls",
                                  ("trajectory.isocline",)),
    "trajectory.isocline.self_ms": ("ms/job", "self_ms",
                                    ("trajectory.isocline",)),
    "lyapunov.value.calls": ("count/job", "calls", ("lyapunov.value",)),
    "lyapunov.value.points": ("count/job", "count", ("lyapunov.value",)),
    "lyapunov.value.self_ms": ("ms/job", "self_ms", ("lyapunov.value",)),
    "lyapunov.grid.self_ms": ("ms/job", "self_ms", ("lyapunov.grid",)),
    "lyapunov.H.calls": ("count/job", "calls", ("lyapunov.H",)),
    "bounds.bound_X.self_ms": ("ms/job", "self_ms", ("bounds.bound_X",)),
    "bounds.hypotheses.self_ms": ("ms/job", "self_ms", ("bounds.hypotheses",)),
    "bounds.invert_H.self_ms": ("ms/job", "self_ms", ("bounds.invert_H",)),
    "bounds.sweep.rows": ("count/job", "count", ("bounds.sweep",)),
    "lambertw.calls": ("count/job", "calls", ("lambertw",)),
    "lambertw.self_ms": ("ms/job", "self_ms", ("lambertw",)),
    "stability.report.self_ms": ("ms/job", "self_ms", ("stability.report",)),
    "portrait.field_grid.self_ms": ("ms/job", "self_ms",
                                    ("portrait.field_grid",)),
    "portrait.grid_points": ("count/job", "count", ("portrait.field_grid",)),
    "portrait.marching.calls": ("count/job", "calls", ("portrait.marching",)),
    "portrait.marching.self_ms": ("ms/job", "self_ms", ("portrait.marching",)),
    "portrait.vertices": ("count/job", "count", ("portrait.marching",)),
    "portrait.svg.self_ms": ("ms/job", "self_ms", ("portrait.svg",)),
    "portrait.csv.self_ms": ("ms/job", "self_ms", ("portrait.csv",)),
    "astro.masstable.self_ms": ("ms/job", "self_ms", ("astro.masstable",)),
    "astro.to_physical.self_ms": ("ms/job", "self_ms", ("astro.to_physical",)),
}

#: metrics derived from others: integrate.accept_ratio is
#: steps / (steps + rejected); integrate.us_per_step is the whole
#: integrate span (field and stop calls included) per accepted step
DERIVED_UNITS = {"integrate.accept_ratio": "ratio", "integrate.us_per_step": "us"}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = {}
        self.job_id = -1
        self._stack = [-1]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span.  ``counter``, a pair (counter name,
        measure(args, result)), adds to a counter after each call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.count(counter[0], counter[1](args, out))
            return out
        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, job=self.job, start=self.start,
                 end=self.end)

    def self_times(self) -> tuple:
        """(duration, self time) of every span."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur, dur - child


def _integrate_wrapper(tracer: Tracer, fn):
    """integrate_adaptive inside a span, with its field and stop
    callables wrapped in spans and its step counts recorded."""
    @functools.wraps(fn)
    def traced(field, *args, **kwargs):
        field = tracer.wrap("trajectory.field", field)
        if kwargs.get("stop") is not None:
            kwargs["stop"] = tracer.wrap("trajectory.stop", kwargs["stop"])
        idx = tracer.open("integrate")
        try:
            sol = fn(field, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count("integrate.steps", sol.steps)
        tracer.count("integrate.rejected", getattr(sol, "rejected", 0))
        return sol
    return traced


#: span name -> (counter, measure(args, result)) for the count metrics
_COUNTERS = {
    "lyapunov.value": ("lyapunov.value.points",
                       lambda args, out: float(np.size(out))),
    "bounds.sweep": ("bounds.sweep.rows", lambda args, out: float(len(out))),
    "portrait.field_grid": ("portrait.grid_points",
                            lambda args, out: float(out[0].values.size)),
    "portrait.marching": ("portrait.vertices",
                          lambda args, out: float(sum(map(len, out)))),
}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) or None when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Installation:
    """The wrappers installed for one traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed = set()
        self._saved = []
        for name, targets in SPANS.items():
            for module, attr in targets:
                found = _resolve(module, attr)
                if found is None:
                    continue
                owner, last = found
                original = vars(owner).get(last, getattr(owner, last))
                self._saved.append((owner, last, original))
                setattr(owner, last, self._wrapper(name, original))
                self.installed.add(name)
        if "integrate" in self.installed:
            self.installed.update(ARGUMENT_SPANS)

    def _wrapper(self, name: str, fn):
        if name == "integrate":
            return _integrate_wrapper(self.tracer, fn)
        return self.tracer.wrap(name, fn, _COUNTERS.get(name))

    def uninstall(self) -> None:
        for owner, last, original in reversed(self._saved):
            setattr(owner, last, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, installed: set, jobs: int,
                  scale: float = 1.0) -> dict:
    """Per-layer metric values per job; None for absent layers.  Times
    are multiplied by ``scale`` (see calibrate.py)."""
    dur, self_t = tracer.self_times()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    totals = {}
    for i, name in enumerate(tracer.names):
        mask = name_id == i
        totals[name] = (int(mask.sum()), float(self_t[mask].sum()),
                        float(dur[mask].sum()))
    jobs = max(jobs, 1)
    out = {}
    for metric, (unit, kind, spans) in LAYER_METRICS.items():
        if not any(s in installed for s in spans):
            out[metric] = (None, unit)
            continue
        if kind == "self_ms":
            v = sum(totals.get(s, (0, 0.0, 0.0))[1] for s in spans) * 1e3 * scale
        elif kind == "calls":
            v = sum(totals.get(s, (0, 0.0, 0.0))[0] for s in spans)
        else:
            v = tracer.counters.get(metric, 0.0)
        out[metric] = (v / jobs, unit)
    if "integrate" in installed:
        steps = tracer.counters.get("integrate.steps", 0.0)
        rejected = tracer.counters.get("integrate.rejected", 0.0)
        total_us = totals.get("integrate", (0, 0.0, 0.0))[2] * 1e6 * scale
        out["integrate.accept_ratio"] = (
            steps / (steps + rejected) if steps else 0.0, "ratio")
        out["integrate.us_per_step"] = (total_us / steps if steps else 0.0,
                                        "us")
    else:
        out.update({k: (None, u) for k, u in DERIVED_UNITS.items()})
    return out
