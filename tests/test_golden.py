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

The specs on synth_logistic data (all but criterion_8_pca) are dense, so A
is read column-major (`Dataset.products`): their digests also assume
OpenBLAS's dgemv kernel for A v and numpy's einsum loop for A^T u. Another
OpenBLAS version or core type may order dgemv's sums differently; CI logs
both with numpy.show_runtime().

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
        "32b490ab91ddd4fef00062c5c93bb2c6ce70e4fd62505a6d6b2533983e9907d7",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc": [
        "b83014e54bda9eae7b27652eb54b446976d051505545afca098473046399c8a1",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr": [
        "1feb9e51a1271e45b631d112a38130b6416eeeaf46e9aaa1854e0999d88e91a8",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "bench_cr": [
        "71f1efd4b8c1d05d64756598462d48e18a5dd923f68660166e1a3eca4000e649",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_acr": [
        "703fb4d5a333801053a14520b42ba25ac56a85400af4394ab813390c10e1df29",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_agd": [
        "e2fd0d77aed62432be5ec34443a7b6ffcbe294d2105457193b7f3af22430fb16",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_sgd": [
        "63e0c52ed48c5a34ada62a88393ea9d698def0041dfa594ce5634f37f9b71889",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_lbfgs": [
        "dae87d4e807a83ceb0f8c0f05d28ee78d49ca390caa5d6b8a9a1f9e071d3c520",
        "36fe2eb7a4ea81851c6cdbb29a5413093882c25b643b4e9cb6943963e7602689",
    ],
    "sampled_sarc_uniform": [
        "44c10f68744f8c8c60e6ccb240be752337c337264f86e4fca1f0723efae17081",
        "33b5743e4952ff74f7462e9b1715c058df9e07583db110110c0cc3f4f8dcf33c",
    ],
    "sampled_sarc_nonuniform": [
        "ee18e1460dafa7d3a34b3365399760864c5bcdaa899b085c705d8ea2fa164d48",
        "23bd934248a4259b9b875ec586e917ddfd541a45f64a8f24be0727796e3660ad",
    ],
    "sampled_saarc_uniform": [
        "031108a1bf90b356b5edcfbf6a6673dc4249c92b9d1353147af396c6fa9fdaed",
        "6ff7225e04736795f573075b38603af4ea3684b023ff75f79faa878785013f65",
    ],
    "sampled_saarc_nonuniform": [
        "8a86f49f8137897ebfb379634754a9292b9519ef24ae203b18a5ee19339230ca",
        "7a070287af7f6575000a2fa410a77c29323089002c60ccd4a3b5961d49df73de",
    ],
    "sampled_sacr_uniform": [
        "4d92a1acf10d028e2212c9487503574f6df2f94fc5365f2bae73c25ba13a5312",
        "bf73214b8d21d6bb612ff3ba80bed1e867dcdb1f4ab42318d3159e06c9de117d",
    ],
    "sampled_sacr_nonuniform": [
        "b4026d73091bbc665d737e1905a5ae656d6faadc916280a6067cfadd39ac5e6e",
        "ffe8a5a0de04473f32d39f6c273ba4aa01bb9e166705620bcc831c37b3bf8cde",
    ],
    "bench_sarc_nonuniform": [
        "32b490ab91ddd4fef00062c5c93bb2c6ce70e4fd62505a6d6b2533983e9907d7",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc_nonuniform": [
        "b83014e54bda9eae7b27652eb54b446976d051505545afca098473046399c8a1",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr_nonuniform": [
        "1feb9e51a1271e45b631d112a38130b6416eeeaf46e9aaa1854e0999d88e91a8",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "family_svm_sarc_uniform": [
        "20813cd4916ed95d010878f716d45700cdaa5f6416fd148442399d1629555977",
        "94b71a1763c3efac61ca8f76f10df6d9d5590dd6b4e96f1362ebba7116266790",
    ],
    "family_svm_saarc_nonuniform": [
        "e9fb173b86cbc67d88d68fdb9af898b215694a9e2b4c2b81e634cb9a55df9176",
        "131916e091dce5ad72c0df2b8085f7530d196dcc9dfa5a5304206860082471c1",
    ],
    "family_ridge_sacr_nonuniform": [
        "747f341a6496ddb675b1c6f20eb5977da89cbb8444b97148bc5e02a254058ce0",
        "2704bc755cad8e2947ab6384ef95bca570af73e3d7c10755744531de17d3fb48",
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
