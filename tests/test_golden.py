"""Golden traces: seeded runs hash to digests pinned from a known-good build.

Each spec's 9-column CSV trace is hashed exactly as `write_trace` emits it,
and a second hash covers the accelerated-phase columns that the CSV leaves
out: (phase, l, varsigma, t3) per row. A refactor of the drivers, the loss
families or the sampling layer must leave every digest unchanged. The specs
are rerun once in a child process with OPENBLAS_NUM_THREADS=2 to check that
the traces do not depend on the BLAS thread count.

The digests also assume numpy's own elementwise kernels: the logistic value
calls np.exp and np.log1p and the SVM link np.tanh, which numpy dispatches to
SIMD code by CPU (AVX-512 where the digests were pinned). Those kernels
differ from the C library's math.exp, math.log1p and math.tanh in the last
bit on about 5 %, 8 % and 27 % of uniform inputs, so a CPU without the same
dispatch can move the CSV digests by rounding alone.

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
        "877fc5b60ecfe9cc092a93cbfd05ef9b22531946745f15da94853a4585fbe5ee",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc": [
        "1b75a736afbd37e0df7f48f94a4fb0641ba2d8e2d6b17db1f02d4b05e3fd561d",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr": [
        "362cf99fde51e0eeaf7a1027f641efd5e5c76a06f00d08ac3a1c69e658beb46d",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "bench_cr": [
        "76f9d25334ba732feed304d2b81d74c346127dce984fc5592f83263b08a3140a",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_acr": [
        "2eb15c88c3929bfe19293544f6950ddd5e09d8ae781b00892b80a021d984a5dd",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_agd": [
        "e927ee0170915fecffb0d7ce53d7b824a12deaf3ea51fa329758f5eed0a6034c",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_sgd": [
        "0fcb8008011083a038779f9d5ad1eaf06d87f06b49efe95723920ec6fb9a87a6",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_lbfgs": [
        "1f6fadf59be80f48f3849d24d38eb13cff1f7533d3dfbec0cc2bf90d8acf7d1c",
        "36fe2eb7a4ea81851c6cdbb29a5413093882c25b643b4e9cb6943963e7602689",
    ],
    "sampled_sarc_uniform": [
        "7fcee72ad3093d8e0ecaceccef87437b3f4a0c8c7628567b1312b08ab5adc692",
        "33b5743e4952ff74f7462e9b1715c058df9e07583db110110c0cc3f4f8dcf33c",
    ],
    "sampled_sarc_nonuniform": [
        "197ce55834a196663132ff04d813a1f102e5097b7f157fff7406ccffcc42afd0",
        "23bd934248a4259b9b875ec586e917ddfd541a45f64a8f24be0727796e3660ad",
    ],
    "sampled_saarc_uniform": [
        "b230b9f5de695ebb41ba003bb101fa2f5e4a273ba4fb9de88ac4254ade2289df",
        "6ff7225e04736795f573075b38603af4ea3684b023ff75f79faa878785013f65",
    ],
    "sampled_saarc_nonuniform": [
        "239df0cc2284b2f271f2d0c5f46ecf54e21b67991e5167dfba1b94467ac68f59",
        "7a070287af7f6575000a2fa410a77c29323089002c60ccd4a3b5961d49df73de",
    ],
    "sampled_sacr_uniform": [
        "5899676102f49998cdee5bb652b6ab5f70a3479bcf4e0304392ea73ac5499d55",
        "bf73214b8d21d6bb612ff3ba80bed1e867dcdb1f4ab42318d3159e06c9de117d",
    ],
    "sampled_sacr_nonuniform": [
        "f7bf7f1e4a38db42727ef74554bf41032c39c9749abb2106e3a43ff2e7478802",
        "ffe8a5a0de04473f32d39f6c273ba4aa01bb9e166705620bcc831c37b3bf8cde",
    ],
    "bench_sarc_nonuniform": [
        "877fc5b60ecfe9cc092a93cbfd05ef9b22531946745f15da94853a4585fbe5ee",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc_nonuniform": [
        "1b75a736afbd37e0df7f48f94a4fb0641ba2d8e2d6b17db1f02d4b05e3fd561d",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr_nonuniform": [
        "362cf99fde51e0eeaf7a1027f641efd5e5c76a06f00d08ac3a1c69e658beb46d",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "family_svm_sarc_uniform": [
        "2bcb7e80b3d4dafa4d977362b72deab6016cf1c2e588a39ddcfd037e139b9b0f",
        "94b71a1763c3efac61ca8f76f10df6d9d5590dd6b4e96f1362ebba7116266790",
    ],
    "family_svm_saarc_nonuniform": [
        "ed90643e3fccee1dc4de1ddc884a7eed0964a017dc36de852180ec26e2b50e7e",
        "131916e091dce5ad72c0df2b8085f7530d196dcc9dfa5a5304206860082471c1",
    ],
    "family_ridge_sacr_nonuniform": [
        "f554a2fb9e13b205c7a32d16264955124c0d19cea8d045147638e9d2c8d04827",
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
