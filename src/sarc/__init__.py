"""Stochastic adaptive cubic regularization: sub-sampled Newton-type solvers
with an accelerated variant, a hybrid scheme, and a benchmark harness."""

from .accounting import EpochLedger
from .baselines import BaselineResult, acr_run, agd_run, cr_run, lbfgs_run, sgd_run
from .bench import EXIT_CODES, RunSpec, exit_code, read_trace, run_benchmark, write_trace
from .cubic import (
    CubicModel,
    SubproblemResult,
    TerminationSpec,
    minimize_model,
    solve_tridiagonal_cubic,
)
from .data import LibsvmFormatError, parse_libsvm, synth_logistic
from .problems import (
    Dataset,
    DegenerateCurvatureError,
    LipschitzInfo,
    LossModel,
    batch_gradient,
    curvature_vector,
    full_gradient,
    full_value,
    lipschitz_bounds,
)
from .saarc_driver import (
    EstimatingSequence,
    phase1_step,
    phase2_step,
    saarc_run,
    sacr_run,
)
from .sampling import (
    SamplingPlan,
    SampleStream,
    SubsampledHessian,
    lemma_nonuniform_bound,
    lemma_uniform_bound,
    nonuniform_distribution,
    resolve_plan,
    sample_size_nonuniform,
    sample_size_uniform,
)
from .sarc_driver import SolverConfig, SolverState, TraceRecord, run, sarc_init, sarc_run, sarc_step

__all__ = [
    "EpochLedger",
    "BaselineResult", "acr_run", "agd_run", "cr_run", "lbfgs_run", "sgd_run",
    "EXIT_CODES", "RunSpec", "exit_code", "read_trace", "run_benchmark", "write_trace",
    "CubicModel", "SubproblemResult", "TerminationSpec",
    "minimize_model", "solve_tridiagonal_cubic",
    "LibsvmFormatError", "parse_libsvm", "synth_logistic",
    "Dataset", "DegenerateCurvatureError", "LipschitzInfo", "LossModel",
    "batch_gradient", "curvature_vector", "full_gradient", "full_value", "lipschitz_bounds",
    "EstimatingSequence", "phase1_step", "phase2_step", "saarc_run", "sacr_run",
    "SamplingPlan", "SampleStream", "SubsampledHessian",
    "lemma_nonuniform_bound", "lemma_uniform_bound",
    "nonuniform_distribution", "resolve_plan",
    "sample_size_nonuniform", "sample_size_uniform",
    "SolverConfig", "SolverState", "TraceRecord", "run", "sarc_init", "sarc_run", "sarc_step",
]
