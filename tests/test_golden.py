"""Golden traces: seeded runs hash to digests pinned from a known-good build.

Each spec's 9-column CSV trace is hashed exactly as `write_trace` emits it,
and a second hash covers the accelerated-phase columns that the CSV leaves
out: (phase, l, varsigma, t3) per row. A refactor of the drivers, the loss
families or the sampling layer must leave every digest unchanged. The specs
are rerun once in a child process with OPENBLAS_NUM_THREADS=2 to check that
the traces do not depend on the BLAS thread count.

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
        spec = RunSpec(algo=algo, synth=SYNTH, x0_std=1.0, max_iters=60, scheme=scheme,
                       config_overrides=overrides)
        return run_benchmark(spec)
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
        "132aa432217fae2828d61053ad7da0bfafb1ee1e6111c7858d3406fff864a2c7",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc": [
        "933a9366480bdf63cbd45aa4f205d83f3f475c82944a1e9972f77af4c396940d",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr": [
        "34b471483f8c87ee82de50297c05de157cad6d90157c6d8f845fc7b6e7dd42c8",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "bench_cr": [
        "4b70cedf77773f1a36523c230d5cc06d019a44a70bac5073535bbce4cf4a57b2",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_acr": [
        "4d5b97949ad3fdc369b65629f24948299f41ecdc5d9e4b7b71bd77ca39b7a194",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_agd": [
        "7c26392d08f00c4a52442850b835f7aafc8595557871a9ff6c1c72d32b477110",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_sgd": [
        "ffc13a8775734bb48d28626f2289614da8a1d394334241e318c76a262d2cffd8",
        "3ccac84e2bbd52158d405ba0d2fcdb78eba6f79441506c91a75d230bbfb585c7",
    ],
    "bench_lbfgs": [
        "5661965d73ea9df8f98230a09e7fbbad1a3698d184b7c65a586e70e97e9420d4",
        "36fe2eb7a4ea81851c6cdbb29a5413093882c25b643b4e9cb6943963e7602689",
    ],
    "sampled_sarc_uniform": [
        "9422b62e6e95f4433b36586b07c75b9333aa4da2181c5b8e6a00c8ec32033350",
        "33b5743e4952ff74f7462e9b1715c058df9e07583db110110c0cc3f4f8dcf33c",
    ],
    "sampled_sarc_nonuniform": [
        "ae2c1ee8d8cb801dd8590e68f24a74ccb503471f6a223f22e5737839c0aa79e0",
        "23bd934248a4259b9b875ec586e917ddfd541a45f64a8f24be0727796e3660ad",
    ],
    "sampled_saarc_uniform": [
        "83838cea9c4b7e764a6f669beede7f9f7a353ad4dee993dd5c90bb6a85fe1501",
        "6ff7225e04736795f573075b38603af4ea3684b023ff75f79faa878785013f65",
    ],
    "sampled_saarc_nonuniform": [
        "2081cd56d2e5e8b2f9977ff3f75751af2b839c79b8d3a9b5f3622448e870a278",
        "7a070287af7f6575000a2fa410a77c29323089002c60ccd4a3b5961d49df73de",
    ],
    "sampled_sacr_uniform": [
        "16c167b17e475171f8864fa000f5f9805d19b74cb2ab0693e21caacf574b0363",
        "bf73214b8d21d6bb612ff3ba80bed1e867dcdb1f4ab42318d3159e06c9de117d",
    ],
    "sampled_sacr_nonuniform": [
        "6915c1e7f27614014acc5d23952140c9be82a6aaed61206589056751bdab1d9a",
        "ffe8a5a0de04473f32d39f6c273ba4aa01bb9e166705620bcc831c37b3bf8cde",
    ],
    "bench_sarc_nonuniform": [
        "132aa432217fae2828d61053ad7da0bfafb1ee1e6111c7858d3406fff864a2c7",
        "4e668a27b30c999fc7e67a21d61cca29af9348c8e2610ff7df5a36ee44a87858",
    ],
    "bench_saarc_nonuniform": [
        "933a9366480bdf63cbd45aa4f205d83f3f475c82944a1e9972f77af4c396940d",
        "68e08ecbe6d97decc2974202cc157a241d5c4d13e796202c520438068b29c04c",
    ],
    "bench_sacr_nonuniform": [
        "34b471483f8c87ee82de50297c05de157cad6d90157c6d8f845fc7b6e7dd42c8",
        "9b15cb68a38bb356a3a97e7e67dc659a0d2a1428b8f455c93076bba5d41c954a",
    ],
    "family_svm_sarc_uniform": [
        "f81f9dc86f245e7cd98c0d14592f67fd44a4bac2b3bb87820c193b2cbcaddec6",
        "94b71a1763c3efac61ca8f76f10df6d9d5590dd6b4e96f1362ebba7116266790",
    ],
    "family_svm_saarc_nonuniform": [
        "098df4244bf46df6db8ec49375ed5bd488bc2e7ffc7965e2070a037ac47e0319",
        "131916e091dce5ad72c0df2b8085f7530d196dcc9dfa5a5304206860082471c1",
    ],
    "family_ridge_sacr_nonuniform": [
        "062404b5ff92b0fe37a49cc906ed1cbf26d117e5d00a5e9abee6672707dc8495",
        "9e9599361e36ddccba5f0bf1c92e3afa32f7ca6989a5478517d4b123feb54790",
    ],
    "criterion_8_pca": [
        "90d64237352c0467d9c7e7063c46a11f805dc3e979f7834095b27f68e5baa734",
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
