"""Benchmark runner: problem assembly, algorithm dispatch, CSV traces.

The benchmark objective is l2-regularized logistic regression with the
(lam/2)||x||^2 convention (reg_scale=0.5). Traces are CSV files with the
columns of `COLUMNS` and repr() float formatting, so a fixed spec and seed
produce byte-identical files; wall time would break that and stays in memory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import BaselineResult, acr_run, agd_run, cr_run, lbfgs_run, sgd_run
from .data import parse_libsvm, synth_logistic
from .problems import Dataset, LossModel
from .saarc_driver import saarc_run, sacr_run
from .sarc_driver import SolverConfig, SolverState, TraceRecord, check_integer, sarc_run

# every solver returns a state or result with x, f, grad_norm, status, trace, ledger
SOLVERS = {
    "sarc": sarc_run, "saarc": saarc_run, "sacr": sacr_run, "cr": cr_run,
    "acr": acr_run, "agd": agd_run, "sgd": sgd_run, "lbfgs": lbfgs_run,
}
ALGORITHMS = tuple(SOLVERS)

# the trace CSV in file order: (column, TraceRecord field, type); a None
# field is a blank cell, and only the fields that default to None may be blank
COLUMNS = (
    ("iter", "iteration", int),
    ("epochs", "epochs", float),
    ("f", "f", float),
    ("grad_norm", "grad_norm", float),
    ("sigma", "sigma", float),
    ("eps_i", "eps_i", float),
    ("sample_size", "sample_size", int),
    ("success", "success", bool),
    ("phase", "phase", str),
)
CSV_HEADER = ",".join(column for column, _, _ in COLUMNS)
PHASES = ("", "sarc", "one", "two")  # the phase column; blank for the baselines
_OPTIONAL = {f.name for f in fields(TraceRecord) if f.default is None}


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
        check_integer("batch", self.batch)
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
    "subproblem_failed": 1,
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


def _cell(value, kind: type) -> str:
    if value is None:
        return ""
    if kind is float:
        return repr(float(value))
    if kind is bool:
        return "1" if value else "0"
    return str(kind(value))


def _parse(cell: str, kind: type, optional: bool):
    """The value `_cell` wrote as `cell`; ValueError for a cell it cannot
    write. A blank cell reads as None where the field is optional."""
    if cell == "" and optional:
        return None
    value = (cell == "1") if kind is bool else kind(cell)
    # int and float also read forms like "1_0" and " 2.5" that _cell never writes
    if _cell(value, kind) != cell or (kind is str and cell not in PHASES):
        raise ValueError(cell)
    return value


def trace_rows(trace: list[TraceRecord]):
    for r in trace:
        yield [_cell(getattr(r, name), kind) for _, name, kind in COLUMNS]


def write_trace(path: str, trace: list[TraceRecord]) -> None:
    lines = [CSV_HEADER] + [",".join(row) for row in trace_rows(trace)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> list[TraceRecord]:
    """Parse an emitted trace; wall time is not stored and reads as 0. A file
    `write_trace` cannot have written raises ValueError naming its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = ",".join(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"line 1: expected the header {CSV_HEADER!r}, got {header!r}")
        for row in reader:
            line = reader.line_num
            if len(row) != len(COLUMNS):
                raise ValueError(f"line {line}: expected {len(COLUMNS)} cells, got {len(row)}")
            values = {}
            for col, (cell, (column, name, kind)) in enumerate(zip(row, COLUMNS), start=1):
                try:
                    values[name] = _parse(cell, kind, name in _OPTIONAL)
                except ValueError:
                    bad = f"line {line}, column {col}: bad {column} cell {cell!r}"
                    raise ValueError(bad) from None
            records.append(TraceRecord(**values))
    return records
