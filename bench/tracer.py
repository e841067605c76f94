"""Spans around calls into the plks modules, recorded from outside them.

`Tracer.install` replaces each public function a plks module defines (every
module-level function whose name has no leading underscore) by a wrapper that records one span per call: the
layer (the module name), the function, start and end times, the enclosing
span and counters read from public fields of the result.  The wrapper is
put into every plks namespace that holds the function, so calls between
modules are traced as well.  Spans stay in memory; `uninstall` puts the
original functions back.  Nothing in `src/plks` is changed on disk.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

LAYERS = ("params", "radial_ode", "backward", "forward", "reconstruct", "cli")


@dataclass
class Span:
    name: str                      # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: Optional[int] = None   # index of the enclosing span
    error: Optional[str] = None    # exception class name, if the call raised
    counters: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def result_counters(result) -> dict:
    """Deterministic work counters from public fields of a plks result."""
    out = {}
    for attr in ("n_steps", "n_rejected", "n_iterations"):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            out[attr] = value
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=open_[-1] if open_ else None)
            spans.append(span)
            open_.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            span.counters = result_counters(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module of plks."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"plks.{layer}")
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "plks" or mod_name.startswith("plks.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def spans_from_json(rows: list[dict], offset: int = 0) -> list[Span]:
    """Rebuild spans read from a file; parent indices are shifted by offset."""
    out = []
    for row in rows:
        span = Span(**row)
        if span.parent is not None:
            span.parent += offset
        out.append(span)
    return out


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged where they overlap,
    so time covered by two children is subtracted once.
    """
    kids = children_of(spans)
    out = []
    for s, idx in zip(spans, kids):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted((max(spans[i].start, s.start), min(spans[i].end, s.end))
                             for i in idx):
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.duration - covered)
    return out


def count_descendants(spans: list[Span], kids: list[list[int]], root: int,
                      name: str) -> int:
    n, stack = 0, list(kids[root])
    while stack:
        i = stack.pop()
        n += spans[i].name == name
        stack.extend(kids[i])
    return n


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one pass, named as in BENCHMARK.json."""
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def counter(name, key):
        return sum(spans[i].counters.get(key, 0) for i in by_name.get(name, ()))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)

    integ = "radial_ode.integrate"
    accepted = counter(integ, "n_steps")
    rejected = counter(integ, "n_rejected")
    attempts = accepted + rejected
    m["radial_ode.integrate.calls"] = calls(integ)
    m["radial_ode.integrate.self_s"] = self_total(integ)
    m["radial_ode.integrate.us_per_attempt"] = (
        1e6 * self_total(integ) / attempts if attempts else 0.0)
    m["radial_ode.accepted_steps"] = accepted
    m["radial_ode.rejected_steps"] = rejected
    m["radial_ode.reject_ratio"] = rejected / attempts if attempts else 0.0

    audit = "radial_ode.energy_derivative_check"
    m["radial_ode.energy_audit.s"] = total(audit)
    m["radial_ode.energy_audit.violations"] = sum(
        spans[i].error == "EnergyLawError" for i in by_name.get(audit, ()))

    classify = [spans[i].duration for i in by_name.get("backward.classify", ())]
    m["backward.classify.calls"] = len(classify)
    m["backward.classify.p50_ms"] = 1e3 * statistics.median(classify) if classify else 0.0
    crit = [i for i in by_name.get("backward.find_critical_a", ()) if spans[i].error is None]
    m["backward.integrations_per_a_c"] = (
        statistics.fmean(count_descendants(spans, kids, i, integ) for i in crit)
        if crit else 0.0)
    rounds = [spans[i].counters["n_iterations"] for i in crit
              if "n_iterations" in spans[i].counters]
    m["backward.rounds_per_a_c"] = statistics.fmean(rounds) if rounds else 0.0
    m["backward.find_critical_a.self_s"] = self_total("backward.find_critical_a")
    m["backward.sweep_a.self_s"] = self_total("backward.sweep_a")

    m["forward.solve_forward.calls"] = calls("forward.solve_forward")
    m["forward.solve_forward.self_s"] = self_total("forward.solve_forward")
    m["forward.fit_decay_rate.s"] = total("forward.fit_decay_rate")

    m["reconstruct.residual_grade_backward.self_s"] = self_total(
        "reconstruct.residual_grade_backward")
    for fn in ("psi_from_phi", "mass", "system_residual", "delta_test"):
        m[f"reconstruct.{fn}.s"] = total(f"reconstruct.{fn}")
    return m
