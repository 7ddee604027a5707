"""Golden traces: seeded runs hash to digests pinned from a known-good build.

Each spec's 9-column CSV trace is hashed exactly as `write_trace` emits it,
and a second hash covers the accelerated-phase columns that the CSV leaves
out: (phase, l, varsigma, t3) per row. A refactor of the drivers, the loss
families or the sampling layer must leave every digest unchanged. The specs
are rerun once in a child process with OPENBLAS_NUM_THREADS=2 to check that
the traces do not depend on the BLAS thread count.

The digests also assume numpy's own elementwise kernels: the logistic link
1 / (1 + exp(b t)) calls np.exp, the logistic value np.exp and np.log1p and
the SVM link np.tanh, which numpy dispatches to SIMD code by CPU (AVX-512
where the digests were pinned). Those kernels differ from the C library's
math.exp, math.log1p and math.tanh in the last bit on about 5 %, 8 % and
27 % of uniform inputs, so a CPU without the same dispatch can move the CSV
digests by rounding alone; the link no longer goes through scipy's expit,
which calls the C library's exp.

The specs on synth_logistic data (all but criterion_8_pca) are dense, so A
is read column-major in blocks of 8,192 rows (`ProductPair`): their digests
also assume OpenBLAS's dgemv kernel for A v and its ddot kernel, called by
numpy's vecdot, for A^T u. A block stays below ddot's 10,000-entry
threading cutoff, so ddot runs on one thread at any BLAS thread count.
Another OpenBLAS version or core type may order either kernel's sums
differently; CI logs both with numpy.show_runtime().

    python tests/test_golden.py   # prints the current digests as JSON
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sarc.bench import (
    ALGORITHMS,
    CSV_HEADER,
    EXIT_CODES,
    SOLVERS,
    RunSpec,
    run_benchmark,
    trace_rows,
)
from sarc.data import synth_logistic
from sarc.problems import Dataset, LossModel
from sarc.sarc_driver import SolverConfig, sarc_run

SYNTH = (2000, 10, 0, 4.0)


def _bench(algo, scheme="uniform", **overrides):
    def run():
        config = SolverConfig(max_iters=60, scheme=scheme, **overrides)
        return run_benchmark(RunSpec(algo=algo, x0_std=1.0, config=config),
                             synth_logistic(*SYNTH))
    return run


def _family(family, algo, scheme, **overrides):
    # the non-logistic GLM families on the same data, with sampled builds
    def run():
        model = LossModel(family, 1e-3, synth_logistic(*SYNTH), reg_scale=0.5)
        cfg = SolverConfig(scheme=scheme, max_iters=40, seed=0, **overrides)
        x0 = np.random.default_rng(5).standard_normal(SYNTH[1])
        return SOLVERS[algo](model, cfg, x0)
    return run


def _criterion_8_pca():
    ds = Dataset.from_dense(np.zeros((500, 6)), np.zeros(500))
    model = LossModel("pca_quadratic", 1.0, ds)
    cfg = SolverConfig(fixed_sample_size=50, max_iters=10, grad_tol=0.0, seed=0)
    return sarc_run(model, cfg, np.full(6, 1.5))


SPECS = {f"bench_{algo}": _bench(algo) for algo in ALGORITHMS}
SPECS.update({
    f"sampled_{algo}_{scheme}": _bench(algo, scheme, fixed_sample_size=300)
    for algo in ("sarc", "saarc", "sacr")
    for scheme in ("uniform", "nonuniform")
})
# the curvature sweep followed by an exact build at the same point; every
# build is exact at n = 2000, so these equal the uniform-scheme digests
SPECS.update({f"bench_{algo}_nonuniform": _bench(algo, "nonuniform")
              for algo in ("sarc", "saarc", "sacr")})
SPECS["family_svm_sarc_uniform"] = _family("nonconvex_svm", "sarc", "uniform",
                                           fixed_sample_size=300)
SPECS["family_svm_saarc_nonuniform"] = _family("nonconvex_svm", "saarc", "nonuniform",
                                               fixed_sample_size=300)
SPECS["family_ridge_sacr_nonuniform"] = _family("ridge_least_squares", "sacr", "nonuniform",
                                                fixed_sample_size=300)
SPECS["criterion_8_pca"] = _criterion_8_pca

GOLDEN = {
    "bench_sarc": [
        "ffc2c4cc7851222ffa2808caaa76cf2cfe29b7b96b40a7d8d71c6eae5e7a6a14",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc": [
        "c6bf427342a2bc4f6a63522fd6b5b29a1f831c81bd7b20310b0c65fcaaa949e9",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr": [
        "a6f4cdc3d1da4e9fb53a35a12c00ab29c71b42ec66d349298539b52e69a97336",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "bench_cr": [
        "1a5e16f9f95427d79caad26d9e611a096b2b98022b14786bb68869227508db5f",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_acr": [
        "ac4a2922a6dcfa81a360aea720819d4b0746176b54e3124fcb7b57e315fd8bd6",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_agd": [
        "beded3a16632f7cebb043ce734b09ad264fdab1ba46a272988658864afb46cf1",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_sgd": [
        "b6e720d1ac1e58d985943db849635b8f7c5274ff41c8e75cc5d06d4a01789ca3",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_lbfgs": [
        "1e2631f75aaca1fb06298dc0a446b2a4044a0effb0861e2dfd4ba477905b726c",
        "36fe2eb7a4ea81851c6cdbb29a5413093882c25b643b4e9cb6943963e7602689",
    ],
    "sampled_sarc_uniform": [
        "a4a823d6df36888c6c16490d7f685a0ce1c01574d6e99229d66f0707ea15bed3",
        "33b5743e4952ff74f7462e9b1715c058df9e07583db110110c0cc3f4f8dcf33c",
    ],
    "sampled_sarc_nonuniform": [
        "95615b8245a9f291943739caee77b17359eb205bf4e81dc3a9e2f96a503ce777",
        "23bd934248a4259b9b875ec586e917ddfd541a45f64a8f24be0727796e3660ad",
    ],
    "sampled_saarc_uniform": [
        "c5a286ba03b9f831981c34c5c81cc502d409d85859f38eacd0403f8c5f529613",
        "6ff7225e04736795f573075b38603af4ea3684b023ff75f79faa878785013f65",
    ],
    "sampled_saarc_nonuniform": [
        "28a8970baedef9550c2da40909c40cd519577bacd9e647acd50d49fb0f5c8992",
        "7a070287af7f6575000a2fa410a77c29323089002c60ccd4a3b5961d49df73de",
    ],
    "sampled_sacr_uniform": [
        "bbe0326f42285e6ac644253d216f5960b541474e18fd341b1384be23634e7541",
        "bf73214b8d21d6bb612ff3ba80bed1e867dcdb1f4ab42318d3159e06c9de117d",
    ],
    "sampled_sacr_nonuniform": [
        "46492bfe0e11b3ab1f2a8499f17ff2aae68bb0c04c059a2abb2250eb5ff55213",
        "ffe8a5a0de04473f32d39f6c273ba4aa01bb9e166705620bcc831c37b3bf8cde",
    ],
    "bench_sarc_nonuniform": [
        "ffc2c4cc7851222ffa2808caaa76cf2cfe29b7b96b40a7d8d71c6eae5e7a6a14",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc_nonuniform": [
        "c6bf427342a2bc4f6a63522fd6b5b29a1f831c81bd7b20310b0c65fcaaa949e9",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr_nonuniform": [
        "a6f4cdc3d1da4e9fb53a35a12c00ab29c71b42ec66d349298539b52e69a97336",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "family_svm_sarc_uniform": [
        "a3bb4eb2e4cfea24bd3bc7b60ca67ff5d0ad1eb00c822dc74edc035a8d4fbf8b",
        "94b71a1763c3efac61ca8f76f10df6d9d5590dd6b4e96f1362ebba7116266790",
    ],
    "family_svm_saarc_nonuniform": [
        "49c22a7c7fd9224cd46fcc166118d6aaa0dcf72af79d78104bb4c3565d95e9ee",
        "131916e091dce5ad72c0df2b8085f7530d196dcc9dfa5a5304206860082471c1",
    ],
    "family_ridge_sacr_nonuniform": [
        "1a268edd2bae61b742acb483b6363f5a1f1ef0885858bfd2687ba8aa8ae03502",
        "9e9599361e36ddccba5f0bf1c92e3afa32f7ca6989a5478517d4b123feb54790",
    ],
    "criterion_8_pca": [
        "387dc25b585ba168b49aedf20c4883f21f6897fed3faf0712737baec8439de37",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
}


def trace_digests(trace) -> tuple[str, str]:
    csv = hashlib.sha256((CSV_HEADER + "\n").encode())
    for row in trace_rows(trace):
        csv.update((",".join(row) + "\n").encode())
    seq = hashlib.sha256()
    for r in trace:
        seq.update((repr((r.phase, r.l, r.varsigma, r.t3)) + "\n").encode())
    return csv.hexdigest(), seq.hexdigest()


@functools.cache
def all_results() -> dict:
    return {name: run() for name, run in SPECS.items()}


def all_digests() -> dict:
    return {name: list(trace_digests(res.trace)) for name, res in all_results().items()}


def test_traces_match_golden_digests():
    got = all_digests()
    assert set(got) == set(GOLDEN)
    changed = {name: got[name] for name in GOLDEN if got[name] != GOLDEN[name]}
    assert not changed


def test_statuses_have_exit_codes():
    # a leaked transient status ("running", say) has no exit code
    statuses = {name: res.status for name, res in all_results().items()}
    assert not {name: s for name, s in statuses.items() if s not in EXIT_CODES}


def test_traces_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == GOLDEN


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1))
