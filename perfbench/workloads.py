"""The benchmark's four problem instances, built only through sarc's public API.

Each instance is pinned (data seed, size, lambda, tolerance) because the run
checks its outputs against the references in ``reference.json``. The
benchmark's ``--seed`` draws a random reflection of the coordinate axes: a
+-1 sign per column of A, applied to the start point too. The solvers are
exactly equivariant under sign flips in floating point (each product
a_ij * x_j and every sum keep their order and magnitude), so every seed gets
a different matrix while iterations, epochs, f and the 9-column trace stay
bit-identical; the run checks that they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

import sarc


@dataclass
class Problem:
    model: sarc.LossModel
    x0: np.ndarray
    config: sarc.SolverConfig
    solver: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # sacr_run | sarc_run | saarc_run
    make: Callable[[], tuple]  # -> (Dataset, family, lam, reg_scale, x0, config kwargs)

    def build(self, seed: int) -> Problem:
        ds, family, lam, reg_scale, x0, cfg = self.make()
        ds, x0 = reflect(ds, x0, seed)
        model = sarc.LossModel(family, lam, ds, reg_scale=reg_scale)
        return Problem(model, x0, sarc.SolverConfig(**cfg), getattr(sarc, self.solver))


def reflect(ds: sarc.Dataset, x0: np.ndarray, seed: int):
    """The instance mirrored in the coordinate axes whose signs `seed` flips."""
    rng = np.random.default_rng(np.random.Philox(key=int(seed)))
    signs = np.where(rng.random(ds.d) < 0.5, -1.0, 1.0)
    A = ds.A.copy()
    A.data *= signs[A.indices]
    return sarc.Dataset(A, ds.b), x0 * signs


def _logistic_200k(grad_tol: float):
    def make():
        ds = sarc.synth_logistic(200000, 10, 1, 1.0, scale=0.25)
        x0 = np.random.default_rng(1).standard_normal(10)
        cfg = dict(grad_tol=grad_tol, max_iters=500, scheme="nonuniform", seed=1)
        return ds, "reg_logistic", 1e-4, 0.5, x0, cfg
    return make


def _diag_quadratic():
    # tests/oracles.diag_quadratic_problem at d=200, cond=1e4: Hessian
    # diag(2 logspace(0, -4, d)), planted minimizer, f* = 0
    d = 200
    h = 2.0 * np.logspace(0.0, -4.0, d)
    A = np.diag(np.sqrt(d * h / 2.0))
    c = np.random.default_rng(7).standard_normal(d)
    cfg = dict(grad_tol=1e-10, max_iters=500, exact_hessian=True, seed=1)
    return sarc.Dataset.from_dense(A, A @ c), "ridge_least_squares", 0.0, 1.0, np.zeros(d), cfg


def _sparse_logistic():
    # drawn directly in CSR; a dense n x d array is never formed
    n, d, density, scale = 50000, 1000, 0.01, 0.3
    rng = np.random.default_rng(np.random.Philox(key=1))
    A = sp.random(n, d, density=density, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal) * scale
    w = rng.standard_normal(d) / np.sqrt(d * density) / scale
    b = np.where(A @ w >= 0.0, 1.0, -1.0)
    b[rng.random(n) < 0.1] *= -1.0
    cfg = dict(grad_tol=1e-8, max_iters=500, scheme="nonuniform", seed=1)
    return sarc.Dataset(A, b), "reg_logistic", 1e-3, 0.5, np.zeros(d), cfg


# Why each workload is in the set is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("hybrid_200k", "sacr_run", _logistic_200k(1e-9)),
    Workload("krylov_deep", "sarc_run", _diag_quadratic),
    Workload("sparse_highd", "sarc_run", _sparse_logistic),
    Workload("accel_200k", "saarc_run", _logistic_200k(1e-5)),
)}
