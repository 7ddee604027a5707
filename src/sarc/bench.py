"""Benchmark runner: problem assembly, algorithm dispatch, CSV traces.

The benchmark objective is l2-regularized logistic regression with the
(lam/2)||x||^2 convention (reg_scale=0.5). Traces are written as

    iter,epochs,f,grad_norm,sigma,eps_i,sample_size,success,phase

with repr() float formatting, so a fixed spec and seed produce byte-identical
files. Wall time stays in memory only; it would break determinism.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .baselines import BaselineResult, acr_run, agd_run, cr_run, lbfgs_run, sgd_run
from .data import parse_libsvm, synth_logistic
from .problems import Dataset, LossModel
from .saarc_driver import saarc_run, sacr_run
from .sarc_driver import SolverConfig, SolverState, TraceRecord, sarc_run

# every solver returns a state or result with x, f, grad_norm, status, trace, ledger
SOLVERS = {
    "sarc": sarc_run, "saarc": saarc_run, "sacr": sacr_run, "cr": cr_run,
    "acr": acr_run, "agd": agd_run, "sgd": sgd_run, "lbfgs": lbfgs_run,
}
ALGORITHMS = tuple(SOLVERS)

CSV_HEADER = "iter,epochs,f,grad_norm,sigma,eps_i,sample_size,success,phase"


@dataclass
class RunSpec:
    """One benchmark run on a given dataset; `config.seed` seeds the solver
    and the start point."""

    algo: str
    lam: float = 1e-5
    x0_std: float = 5000.0
    batch: int = 32
    out: str | None = None
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.x0_std < np.inf:
            raise ValueError(f"x0_std must be finite and >= 0, got {self.x0_std}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


def load_dataset(data_path: str | None, synth: tuple | None) -> Dataset:
    """The LIBSVM file at `data_path`, else the synthetic data `synth` =
    (n, d, seed, skew) describes."""
    if data_path is not None:
        return parse_libsvm(data_path)
    n, d, seed, skew = synth
    return synth_logistic(int(n), int(d), int(seed), float(skew))


def build_model(dataset: Dataset, lam: float) -> LossModel:
    return LossModel("reg_logistic", lam, dataset, reg_scale=0.5)


# 0: the gradient tolerance was reached, 2: the iteration cap, 1: a failure
EXIT_CODES = {
    "converged": 0, "stationary": 0,
    "max_iters": 2, "phase1_exhausted": 2,
    "diverged": 1, "linesearch_failed": 1, "sequence_growth_failed": 1,
}


def exit_code(status: str) -> int:
    """The CLI exit code of a run's status; an unknown status is a failure."""
    return EXIT_CODES.get(status, 1)


def run_benchmark(spec: RunSpec, dataset: Dataset) -> SolverState | BaselineResult:
    """Run one spec on `dataset` and return the solver's own result."""
    model = build_model(dataset, spec.lam)
    rng = np.random.default_rng(np.random.SeedSequence([spec.config.seed, 17]))
    x0 = rng.standard_normal(dataset.d) * spec.x0_std

    kwargs = {"batch": spec.batch} if spec.algo == "sgd" else {}
    result = SOLVERS[spec.algo](model, spec.config, x0, **kwargs)
    if spec.out is not None:
        write_trace(spec.out, result.trace)
    return result


def _cell(value, kind: str) -> str:
    if value is None:
        return ""
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind == "bool":
        return "1" if value else "0"
    return str(value)


def trace_rows(trace: list[TraceRecord]):
    for r in trace:
        yield [
            _cell(r.iteration, "int"),
            _cell(r.epochs, "float"),
            _cell(r.f, "float"),
            _cell(r.grad_norm, "float"),
            _cell(r.sigma, "float"),
            _cell(r.eps_i, "float"),
            _cell(r.sample_size, "int"),
            _cell(r.success, "bool"),
            r.phase,
        ]


def write_trace(path: str, trace: list[TraceRecord]) -> None:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in trace_rows(trace):
        buf.write(",".join(row) + "\n")
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def read_trace(path: str) -> list[TraceRecord]:
    """Parse an emitted trace; wall time is not stored and reads as 0."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        for row in reader:
            it, epochs, f, gn, sigma, eps_i, size, success, phase = row
            records.append(
                TraceRecord(
                    iteration=int(it),
                    f=float(f),
                    grad_norm=float(gn),
                    sigma=float(sigma) if sigma else None,
                    eps_i=float(eps_i) if eps_i else None,
                    sample_size=int(size) if size else None,
                    success=bool(int(success)) if success else None,
                    epochs=float(epochs),
                    wall_time=0.0,
                    phase=phase,
                )
            )
    return records
