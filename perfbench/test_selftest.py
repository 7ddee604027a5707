"""Few-second self-test of the benchmark machinery on tiny problems.

    python3 -m pytest -q perfbench/test_selftest.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402
import sarc  # noqa: E402
import setup_probe  # noqa: E402
from tracing import Span, Tracer, installed, self_times  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS, Problem, reflect  # noqa: E402


def tiny(solver=None) -> Problem:
    ds = sarc.synth_logistic(400, 5, 0, 1.0, scale=0.25)
    model = sarc.LossModel("reg_logistic", 1e-3, ds, reg_scale=0.5)
    config = sarc.SolverConfig(grad_tol=1e-8, scheme="nonuniform", seed=0)
    x0 = np.random.default_rng(0).standard_normal(5)
    return Problem(model, x0, config, solver or sarc.sacr_run)


def reference(out) -> dict:
    return {"status": out.status, "iters": out.iters, "epochs": out.epochs, "f": out.f}


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("solve", 0.0, 10.0, -1, 0),
        Span("outer", 1.0, 5.0, 0, 0),
        Span("inner", 2.0, 3.5, 1, 0),
        Span("outer", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.5, 1.5, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: 2 * inner(x))
    assert tracer.solve(outer, 1) == 4
    assert [(s.name, s.parent, s.solve) for s in tracer.spans] == [
        ("solve", -1, 0), ("outer", 0, 0), ("inner", 1, 0)]
    assert harness.self_time_gap(tracer.spans, self_times(tracer.spans), 0) < 1e-9


def test_raising_solve_is_counted_and_the_run_continues():
    good = harness.run_solve(tiny())
    ref = reference(good)

    def overflow(*args):
        raise OverflowError("cannot convert float infinity to integer")

    class Flaky:  # the first solve raises, every later one succeeds
        calls = 0

        def build(self, seed):
            self.calls += 1
            return tiny(overflow if self.calls == 1 else None)

    outcomes, builds = harness.measure(Flaky(), 0, 1, ref)
    assert outcomes[0].error == "OverflowError"
    assert len(outcomes) > 1 and all(o.error is None for o in outcomes[1:])
    assert len(builds) == len(outcomes)


def test_check_names_the_first_output_that_misses():
    out = harness.run_solve(tiny())
    harness.check(out, dict(reference(out), iters=out.iters + 1), out.grad_norm)
    assert out.error == "check:iters"


def test_traced_and_untraced_solves_give_the_same_trace():
    plain = harness.run_solve(tiny())
    tracer = Tracer()
    traced = harness.run_solve(tiny(), tracer)
    assert plain.error is None and traced.error is None
    assert plain.digest == traced.digest
    names = {s.name for s in tracer.spans}
    assert names >= {"solve", "problems.full_gradient", "sampling.hvp", "cubic.minimize_model"}
    selfs = self_times(tracer.spans)
    assert harness.self_time_gap(tracer.spans, selfs, traced.solve_id) < 1e-6
    m = harness.layer_metrics(tracer.spans, selfs, traced)
    assert m["cubic.minimize_model.calls"][0] == m["cubic.condition_met_ratio.den"][0]
    # the wrappers are gone once the solve returns
    assert sarc.sarc_driver.full_value is sarc.problems.full_value
    assert sarc.sampling.SubsampledHessian.matvec.__name__ == "matvec"
    assert not hasattr(sarc.sampling.SubsampledHessian.matvec, "__wrapped__")


def test_wrappers_are_restored_when_the_solve_raises():
    with pytest.raises(ZeroDivisionError):
        with installed(Tracer()):
            1 / 0
    assert not hasattr(sarc.cubic.solve_tridiagonal_cubic, "__wrapped__")


def test_reflection_leaves_the_trace_unchanged():
    base = tiny()
    digests = {harness.run_solve(base).digest}
    for seed in (0, 1):
        ds, x0 = reflect(base.model.dataset, base.x0, seed)
        assert not np.array_equal(ds.A.data, base.model.dataset.A.data)
        model = sarc.LossModel("reg_logistic", 1e-3, ds, reg_scale=0.5)
        digests.add(harness.run_solve(Problem(model, x0, base.config, base.solver)).digest)
    assert len(digests) == 1


def test_command_line_names_every_workload():
    assert WORKLOAD_NAMES == tuple(WORKLOADS)


def test_benchmark_file_names_runnable_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert listed and set(listed) <= set(WORKLOADS)
    refs = json.loads((BENCH / "reference.json").read_text())
    assert set(listed) <= set(refs)


def test_result_line_carries_the_metrics_the_benchmark_file_lists():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    out = harness.run_solve(tiny())
    metrics, _ = harness.end_to_end([out], [0.5])
    assert set(harness.END_TO_END) <= set(metrics)
    tracer = Tracer()
    traced = harness.run_solve(tiny(), tracer)
    layer, _ = harness.per_layer([out], [traced], tracer.spans)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])


def test_setup_is_timed_in_a_fresh_process():
    (seconds,) = setup_probe.measure("krylov_deep", 0, runs=1)
    assert 0.0 < seconds < setup_probe.SETUP_TIMEOUT_S
