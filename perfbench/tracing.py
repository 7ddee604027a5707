"""Spans around the solver's layers, installed from outside the package.

The drivers bind their helpers with ``from .problems import ...``, so a
wrapper is installed on the module whose globals the caller reads, not only
on the module that defines the function. Every wrapper records one span
(name, start, end, parent, solve id) in memory; self time is computed from
the spans afterwards, never accumulated on the fly.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from sarc import cubic, saarc_driver, sampling, sarc_driver

ROOT_SPAN = "solve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    solve: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.solve_id = -1

    def wrap(self, name: str, fn, on_return=None):
        """`fn` recording a span per call; `on_return(args, result)` may
        return a dict of attributes kept on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, 0.0, 0.0, parent, self.solve_id)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if on_return is not None:
                span.attrs = on_return(args, out)
            return out

        return traced

    def solve(self, fn, *args):
        """Run one solve as a root span with a fresh solve id."""
        self.solve_id += 1
        return self.wrap(ROOT_SPAN, fn)(*args)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "solve": s.solve, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, properly nested calls),
    so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _plan_attrs(args, plan):
    return {
        "exact": plan.exact,
        "sweeps": plan.curvature_sweeps,
        "sampled_nonuniform": plan.probabilities is not None and not plan.exact,
    }


def _subproblem_attrs(args, result):
    return {
        "k": result.k,
        "hvp_count": result.hvp_count,
        "status": result.status,
        "condition_met": bool(result.condition_met),
    }


def _build_attrs(args, _none):
    op = args[0]
    return {"rows": int(op.indices.shape[0]), "exact": bool(op.plan.exact)}


# (owner, attribute, span name, attribute extractor)
TARGETS = (
    (sarc_driver, "full_value", "problems.full_value", None),
    (sarc_driver, "full_gradient", "problems.full_gradient", None),
    (sarc_driver, "resolve_plan", "sampling.resolve_plan", _plan_attrs),
    (sarc_driver, "minimize_model", "cubic.minimize_model", _subproblem_attrs),
    (saarc_driver, "full_value", "problems.full_value", None),
    (saarc_driver, "full_gradient", "problems.full_gradient", None),
    (saarc_driver, "resolve_plan", "sampling.resolve_plan", _plan_attrs),
    (sampling, "nonuniform_distribution", "sampling.nonuniform_distribution", None),
    (sampling.SubsampledHessian, "__init__", "sampling.hessian_build", _build_attrs),
    (sampling.SubsampledHessian, "matvec", "sampling.hvp", None),
    (cubic, "solve_tridiagonal_cubic", "cubic.solve_tridiagonal_cubic", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every target with a tracing wrapper; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, extract in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, extract))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
