"""Timed solves, output checks and metrics for one workload.

A solve is one call of the workload's driver from the start point to a
terminal status, on a freshly built problem, so lazy per-dataset caches are
paid inside every solve exactly as a user solving once pays them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from sarc.bench import CSV_HEADER, trace_rows

from tracing import ROOT_SPAN, Tracer, installed, self_times

F_REL_TOL = 1e-12
# krylov_deep's optimum is f* = 0 and it stops near f = 1e-19, where a purely
# relative test would demand equal bits; 1e-15 is far below every logistic f.
F_ABS_TOL = 1e-15
MIN_ITER_SAMPLES = 100  # so that iter_ms_p90 has at least ten samples above it
MAX_MEASURE_S = 120.0  # no new solve starts after this, whatever else holds
# the metrics of BENCHMARK.json's end_to_end list, printed on the result line
END_TO_END = ("solve_s", "iter_ms_p90", "epochs", "iters", "setup_s", "peak_rss_mb")

LAYERS = (
    "problems.full_value",
    "problems.full_gradient",
    "sampling.nonuniform_distribution",
    "sampling.resolve_plan",
    "sampling.hessian_build",
    "sampling.hvp",
    "cubic.solve_tridiagonal_cubic",
    "cubic.minimize_model",
)


@dataclass
class SolveOutcome:
    seconds: float
    error: str | None = None  # exception type name or "check:<name>"
    detail: str = ""
    status: str | None = None
    iters: int | None = None
    epochs: float | None = None
    f: float | None = None
    grad_norm: float | None = None
    digest: str | None = None
    iter_ms: list[float] = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # result-derived layer counts
    solve_id: int = -1  # root span id in a traced run


def trace_digest(trace) -> str:
    h = hashlib.sha256((CSV_HEADER + "\n").encode())
    for row in trace_rows(trace):
        h.update((",".join(row) + "\n").encode())
    return h.hexdigest()


def _grad_norm(result) -> float:
    # SaarcState names it grad_x_norm; every other result type grad_norm
    return result.grad_x_norm if hasattr(result, "grad_x_norm") else result.grad_norm


def _varsigma_growths(result) -> int:
    saarc = getattr(result, "saarc", result)  # SacrResult keeps its SaarcState
    return int(getattr(saarc, "T3", 0))


def run_solve(problem, tracer: Tracer | None = None) -> SolveOutcome:
    """Solve once; any exception is caught and named, never propagated."""
    args = (problem.model, problem.config, problem.x0)
    solve_id = -1
    t0 = perf_counter()
    try:
        if tracer is None:
            result = problem.solver(*args)
        else:
            with installed(tracer):
                result = tracer.solve(problem.solver, *args)
            solve_id = tracer.solve_id
    except Exception as exc:  # a failed solve is counted and the run goes on
        return SolveOutcome(perf_counter() - t0, error=type(exc).__name__,
                            detail=traceback.format_exc(limit=-3))
    seconds = perf_counter() - t0
    trace = result.trace
    steps = [r.success for r in trace if r.success is not None]
    return SolveOutcome(
        seconds=seconds,
        status=result.status,
        iters=len(trace) - 1,
        epochs=float(result.ledger.epochs),
        f=float(result.f),
        grad_norm=float(_grad_norm(result)),
        digest=trace_digest(trace),
        iter_ms=[1e3 * (b.wall_time - a.wall_time) for a, b in zip(trace, trace[1:])],
        counts={
            "accepted": sum(steps),
            "attempted": len(steps),
            "phase_two_iters": sum(r.phase == "two" for r in trace),
            "varsigma_growths": _varsigma_growths(result),
            "gradient_queries": result.ledger.component_gradient_queries,
            "hessian_queries": result.ledger.component_hessian_queries,
            "n": problem.model.n,
        },
        solve_id=solve_id,
    )


def check(out: SolveOutcome, ref: dict, grad_tol: float) -> None:
    """Mark `out` failed at the first output check it misses."""
    if out.error is not None:
        return
    failures = (
        ("status", out.status != ref["status"], f"{out.status!r} != {ref['status']!r}"),
        ("grad_norm", not out.grad_norm <= grad_tol, f"{out.grad_norm!r} > {grad_tol!r}"),
        ("iters", out.iters != ref["iters"], f"{out.iters} != {ref['iters']}"),
        ("epochs", out.epochs != ref["epochs"], f"{out.epochs!r} != {ref['epochs']!r}"),
        ("f", not math.isclose(out.f, ref["f"], rel_tol=F_REL_TOL, abs_tol=F_ABS_TOL),
         f"{out.f!r} vs {ref['f']!r}"),
    )
    for name, failed, detail in failures:
        if failed:
            out.error, out.detail = f"check:{name}", detail
            return


def check_digests(outcomes: list[SolveOutcome], name: str) -> None:
    """Every returned solve must reproduce the first one's trace bytes."""
    done = [o for o in outcomes if o.digest is not None]
    for o in done[1:]:
        if o.digest != done[0].digest and o.error is None:
            o.error, o.detail = f"check:{name}", f"{o.digest} != {done[0].digest}"


def _timed_build(workload, seed):
    t = perf_counter()
    problem = workload.build(seed)
    return problem, perf_counter() - t


def _keep_going(start: float, last: float, samples: int, failed: bool, seconds: float) -> bool:
    elapsed = perf_counter() - start
    if elapsed > MAX_MEASURE_S:
        return False
    if samples < MIN_ITER_SAMPLES and not failed:
        return True
    return elapsed + last <= seconds


def measure(workload, seed: int, seconds: float, ref: dict):
    """Untraced solves for about `seconds`; returns (outcomes, build times)."""
    outcomes, builds = [], []
    start = perf_counter()
    while True:
        problem, build = _timed_build(workload, seed)
        builds.append(build)
        out = run_solve(problem)
        check(out, ref, problem.config.grad_tol)
        del problem
        outcomes.append(out)
        samples = sum(len(o.iter_ms) for o in outcomes)
        if not _keep_going(start, out.seconds + build, samples, out.error is not None, seconds):
            break
    check_digests(outcomes, "digest_repeat")
    return outcomes, builds


def measure_traced(workload, seed: int, seconds: float, ref: dict, tracer: Tracer):
    """Pairs of (untraced, traced) solves for about `seconds`."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        for sink, tr in ((plain, None), (traced, tracer)):
            problem = workload.build(seed)
            out = run_solve(problem, tr)
            check(out, ref, problem.config.grad_tol)
            del problem
            sink.append(out)
        if not _keep_going(start, perf_counter() - t, MIN_ITER_SAMPLES, False, seconds):
            break
    check_digests(plain + traced, "digest_traced")
    return plain, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(outcomes: list[SolveOutcome], setups: list[float]):
    """(metrics, sample counts) over the solves that returned.

    The host runs in bursts of up to twice its steady speed, lasting from
    milliseconds to minutes, and a median moves with how much of a run they
    cover. The slowest solve and the p90 iteration rarely fall in a burst, so
    `solve_s` and `iter_ms_p90` are those; the median solve and the p50
    iteration are reported beside them but are not in END_TO_END.
    """
    done = [o for o in outcomes if o.status is not None]
    lat = [ms for o in done for ms in o.iter_ms]
    if len(lat) < 2:  # no latency distribution to report; the run fails
        return {}, {}
    times = [o.seconds for o in done]
    metrics = {
        "solve_s": (max(times), "s"),
        "solve_s_median": (statistics.median(times), "s"),
        "solve_s_min": (min(times), "s"),
        "iter_ms_p50": (statistics.median(lat), "ms"),
        "iter_ms_p90": (statistics.quantiles(lat, n=10)[8], "ms"),
        "epochs": (done[0].epochs, "epochs"),
        "iters": (done[0].iters, "count"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"solve_s": len(times), "solve_s_median": len(times), "solve_s_min": len(times),
               "iter_ms_p50": len(lat), "iter_ms_p90": len(lat),
               "epochs": len(done), "iters": len(done), "setup_s": len(setups),
               "peak_rss_mb": 1}
    return metrics, samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, selfs, out: SolveOutcome) -> dict:
    """Per-layer metrics of one traced solve, from its spans."""
    mine = [(s, t) for s, t in zip(spans, selfs) if s.solve == out.solve_id]
    m: dict[str, tuple] = {}
    for layer in LAYERS:
        rows = [(s, t) for s, t in mine if s.name == layer]
        m[f"{layer}.calls"] = (len(rows), "count")
        m[f"{layer}.self_s"] = (sum(t for _, t in rows), "s")

    def attrs(layer):
        return [s.attrs for s, _ in mine if s.name == layer]

    plans = attrs("sampling.resolve_plan")
    builds = attrs("sampling.hessian_build")
    subs = attrs("cubic.minimize_model")
    sweeps = sum(p["sweeps"] for p in plans)
    used = sum(p["sweeps"] for p in plans if p["sampled_nonuniform"])
    rows_built = sum(b["rows"] for b in builds)
    met = sum(s["condition_met"] for s in subs)
    dims = [s["k"] for s in subs]
    root = [(s, t) for s, t in mine if s.name == ROOT_SPAN]
    c = out.counts
    m.update({
        "problems.a_passes": (m["problems.full_value.calls"][0]
                              + 2 * m["problems.full_gradient.calls"][0]
                              + m["sampling.nonuniform_distribution.calls"][0]
                              + rows_built / c["n"], "passes"),
        "sampling.sweep_used_ratio": (_ratio(used, sweeps), "ratio"),
        "sampling.sweep_used_ratio.num": (used, "count"),
        "sampling.sweep_used_ratio.den": (sweeps, "count"),
        "sampling.hessian_build.rows": (rows_built, "rows"),
        "sampling.hessian_build.exact": (sum(b["exact"] for b in builds), "count"),
        "cubic.krylov_dim.mean": (_ratio(sum(dims), len(dims)), "count"),
        "cubic.krylov_dim.max": (max(dims, default=0), "count"),
        "cubic.condition_met_ratio": (_ratio(met, len(subs)), "ratio"),
        "cubic.condition_met_ratio.num": (met, "count"),
        "cubic.condition_met_ratio.den": (len(subs), "count"),
        "sarc_driver.self_s": (sum(t for _, t in root), "s"),
        "sarc_driver.accept_ratio": (_ratio(c["accepted"], c["attempted"]), "ratio"),
        "sarc_driver.accept_ratio.num": (c["accepted"], "count"),
        "sarc_driver.accept_ratio.den": (c["attempted"], "count"),
        "saarc_driver.phase_two_iters": (c["phase_two_iters"], "count"),
        "saarc_driver.varsigma_growths": (c["varsigma_growths"], "count"),
        "accounting.gradient_queries": (c["gradient_queries"], "count"),
        "accounting.hessian_queries": (c["hessian_queries"], "count"),
        "traced_solve_s": (sum(s.duration for s, _ in root), "s"),
    })
    return m


def self_time_gap(spans, selfs, solve_id: int) -> float:
    """|sum of self times - root span duration| for one solve, relative."""
    total = sum(t for s, t in zip(spans, selfs) if s.solve == solve_id)
    root = sum(s.duration for s in spans if s.solve == solve_id and s.name == ROOT_SPAN)
    return abs(total - root) / root


def per_layer(plain: list[SolveOutcome], traced: list[SolveOutcome], spans):
    """(metrics, sample counts): per-layer medians over the traced solves.

    A traced solve whose self times do not add up to its duration is marked
    failed.
    """
    selfs = self_times(spans)
    done = [o for o in traced if o.status is not None]
    for o in done:
        gap = self_time_gap(spans, selfs, o.solve_id)
        if gap > 1e-6 and o.error is None:
            o.error, o.detail = "check:self_time_sum", f"relative gap {gap:.3g}"
    per_solve = [layer_metrics(spans, selfs, o) for o in done]
    if not per_solve:
        return {}, {}
    metrics = {name: (statistics.median(m[name][0] for m in per_solve), unit)
               for name, (_, unit) in per_solve[0].items()}
    plain_s = [o.seconds for o in plain if o.status is not None]
    if plain_s:
        traced_s = statistics.median(o.seconds for o in done)
        metrics["trace_overhead_frac"] = (traced_s / statistics.median(plain_s) - 1.0, "ratio")
    return metrics, {name: len(per_solve) for name in metrics}
