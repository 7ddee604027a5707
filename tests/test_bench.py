import inspect
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sarc import baselines, bench, cli, cubic
from sarc.accounting import EpochLedger
from sarc.baselines import agd_run, cr_run, lbfgs_run, sgd_run
from sarc.bench import (
    ALGORITHMS,
    CSV_HEADER,
    EXIT_CODES,
    SOLVERS,
    RunSpec,
    build_model,
    exit_code,
    read_trace,
    run_benchmark,
    write_trace,
)
from sarc.data import LibsvmFormatError, parse_libsvm, synth_logistic
from sarc.problems import Dataset, LossModel, full_value, lipschitz_bounds
from sarc.sarc_driver import SolverConfig, sarc_init

from oracles import diag_quadratic_problem, snapshot


class TestLibsvmParsing:
    def _parse(self, tmp_path, text, **kw):
        p = tmp_path / "data.txt"
        p.write_text(text)
        return parse_libsvm(str(p), **kw)

    def test_basic_sparse_line(self, tmp_path):
        ds = self._parse(tmp_path, "+1 1:0.5 3:-2\n-1 2:1.5\n")
        assert ds.n == 2 and ds.d == 3
        A = ds.A.toarray()
        assert np.allclose(A, [[0.5, 0.0, -2.0], [0.0, 1.5, 0.0]])
        assert np.array_equal(ds.b, [1.0, -1.0])

    def test_label_only_row_is_all_zeros(self, tmp_path):
        ds = self._parse(tmp_path, "+1 1:2\n-1\n")
        assert ds.n == 2
        assert np.allclose(ds.A.toarray()[1], 0.0)

    def test_zero_one_labels_mapped(self, tmp_path):
        ds = self._parse(tmp_path, "0 1:1\n1 1:2\n")
        assert np.array_equal(ds.b, [-1.0, 1.0])

    def test_one_two_labels_mapped(self, tmp_path):
        ds = self._parse(tmp_path, "1 1:1\n2 1:2\n")
        assert np.array_equal(ds.b, [1.0, -1.0])

    def test_pm_one_left_alone(self, tmp_path):
        ds = self._parse(tmp_path, "-1 1:1\n+1 1:2\n")
        assert np.array_equal(ds.b, [-1.0, 1.0])

    def test_unknown_labels_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self._parse(tmp_path, "1 1:1\n3 1:2\n")

    def test_malformed_label_has_position(self, tmp_path):
        with pytest.raises(LibsvmFormatError) as e:
            self._parse(tmp_path, "+1 1:1\nabc 1:2\n")
        assert e.value.line == 2
        assert e.value.column == 1

    def test_malformed_pair_and_zero_index(self, tmp_path):
        with pytest.raises(LibsvmFormatError):
            self._parse(tmp_path, "+1 1:x\n")
        with pytest.raises(LibsvmFormatError):
            self._parse(tmp_path, "+1 0:1\n")
        with pytest.raises(LibsvmFormatError):
            self._parse(tmp_path, "+1 1\n")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(LibsvmFormatError):
            self._parse(tmp_path, "")

    def test_n_features_override_and_overflow(self, tmp_path):
        ds = self._parse(tmp_path, "+1 1:1\n-1 2:1\n", n_features=5)
        assert ds.d == 5
        with pytest.raises(ValueError):
            self._parse(tmp_path, "+1 3:1\n", n_features=2)

    def test_repeated_index_rejected_with_position(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="repeated index 3") as e:
            self._parse(tmp_path, "-1 1:1\n1 3:1 3:2\n")
        assert (e.value.line, e.value.column) == (2, 7)

    @pytest.mark.parametrize("text,column", [
        ("+1 1:1\n-1 2:nan\n", 6),
        ("+1 1:1\n-1 1:0.5 2:inf\n", 12),
        ("+1 1:1\n-1 1:1e400\n", 6),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_value_has_position(self, tmp_path, text, column):
        with pytest.raises(LibsvmFormatError, match="non-finite value") as e:
            self._parse(tmp_path, text)
        assert (e.value.line, e.value.column) == (2, column)

    def test_non_finite_label_has_position(self, tmp_path):
        with pytest.raises(LibsvmFormatError, match="non-finite label 'nan'") as e:
            self._parse(tmp_path, "+1 1:1\n  nan 1:2\n")
        assert (e.value.line, e.value.column) == (2, 3)

    def test_unsorted_unique_indices_accepted(self, tmp_path):
        ds = self._parse(tmp_path, "+1 3:2 1:0.5\n")
        assert np.array_equal(ds.A.toarray(), [[0.5, 0.0, 2.0]])

    @settings(max_examples=100)
    @given(st.data())
    def test_round_trip(self, data):
        n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        nonzero = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0.0)
        A = data.draw(hnp.arrays(np.float64, (n, d), elements=st.one_of(st.just(0.0), nonzero)))
        b = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        lines = []
        for i in range(n):
            order = data.draw(st.permutations(range(d)))  # unsorted indices are valid
            pairs = [f"{j + 1}:{float(A[i, j])!r}" for j in order if A[i, j] != 0.0]
            lines.append(" ".join([f"{b[i]:+.0f}"] + pairs))
        extra = data.draw(st.integers(0, 3))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.txt"
            path.write_text("\n".join(lines) + "\n")
            ds = parse_libsvm(str(path))
            padded = parse_libsvm(str(path), n_features=d + extra)
        used = max([j + 1 for j in range(d) if np.any(A[:, j] != 0.0)], default=1)
        assert np.array_equal(ds.A.toarray(), A[:, :used])
        assert np.array_equal(padded.A.toarray(), np.hstack([A, np.zeros((n, extra))]))
        assert np.array_equal(ds.b, b) and np.array_equal(padded.b, b)


class TestSynthData:
    def test_deterministic(self):
        a = synth_logistic(50, 6, 9, 2.0)
        b = synth_logistic(50, 6, 9, 2.0)
        assert np.array_equal(a.A.toarray() if hasattr(a.A, "toarray") else a.A,
                              b.A.toarray() if hasattr(b.A, "toarray") else b.A)
        assert np.array_equal(a.b, b.b)
        c = synth_logistic(50, 6, 10, 2.0)
        assert not np.array_equal(a.b, c.b)

    def test_labels_and_skew(self):
        ds = synth_logistic(400, 8, 0, 50.0)
        assert set(np.unique(ds.b)) <= {-1.0, 1.0}
        A = ds.A.toarray() if hasattr(ds.A, "toarray") else np.asarray(ds.A)
        norms = np.linalg.norm(A, axis=1)
        assert norms[0] > 10.0 * np.median(norms)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth_logistic(100, 5, -1, 1.0)

    def test_seed_bound_is_the_philox_key_width(self):
        with pytest.raises(ValueError, match=r"seed must be < 2\*\*128"):
            synth_logistic(10, 2, 2**128, 1.0)
        assert synth_logistic(10, 2, 2**128 - 1, 1.0).n == 10

    def test_flip_fraction(self):
        ds = synth_logistic(5000, 10, 1, 1.0)
        # roughly 10% of labels disagree with a majority-fit direction; just
        # check both classes are present and neither dominates completely
        frac = np.mean(ds.b == 1.0)
        assert 0.2 < frac < 0.8


class TestEpochLedger:
    def test_arithmetic(self):
        led = EpochLedger(100)
        led.add_gradient_pass()
        assert led.epochs == pytest.approx(1.0)
        led.add_gradient_pass(30)
        assert led.epochs == pytest.approx(1.3)
        led.add_hessian_build(50)
        assert led.epochs == pytest.approx(1.8)
        snap = snapshot(led)
        assert snap == {"gradient_queries": 130, "hessian_queries": 50, "epochs": 1.8}

    def test_validation(self):
        with pytest.raises(ValueError):
            EpochLedger(0)
        led = EpochLedger(10)
        with pytest.raises(ValueError):
            led.add_gradient_pass(-1)
        with pytest.raises(ValueError):
            led.add_hessian_build(-1)


def _quadratic_model(n=40, d=6, seed=0, lam=1e-3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    b = rng.standard_normal(n)
    return LossModel("ridge_least_squares", lam, Dataset.from_dense(A, b))


def _pure_quadratic(d=10, mu=1.0):
    # pca family with zero rows: f(x) = mu/2 ||x||^2, minimum 0 at the origin
    return LossModel("pca_quadratic", mu,
                     Dataset.from_dense(np.zeros((1, d)), np.zeros(1)))


def _unbounded_pca():
    # mu = 0.1 lies below the top eigenvalue of the sample covariance, so f is
    # unbounded below along its eigenvector
    A = np.random.default_rng(0).standard_normal((200, 5))
    return LossModel("pca_quadratic", 0.1, Dataset.from_dense(A, np.zeros(200)))


class TestDivergence:
    def test_every_algorithm_stops_diverged(self):
        model = _unbounded_pca()
        x0 = np.ones(5)
        f0 = full_value(model, x0)
        for algo, solver in SOLVERS.items():
            res = solver(model, SolverConfig(max_iters=2000), x0)
            assert res.status == "diverged", (algo, res.status)
            assert len(res.trace) <= 50, algo
            assert not abs(res.f) <= 1e3 * abs(f0), algo
            assert all(abs(r.f) <= 1e3 * abs(f0) for r in res.trace[:-1]), algo

    def test_cli_exits_one_on_divergence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bench, "build_model", lambda dataset, lam: _unbounded_pca())
        out = str(tmp_path / "{algo}.csv")
        code = cli.main(["run", "--algo", ",".join(ALGORITHMS), "--synth", "200,5,0,1",
                         "--x0-std", "1", "--max-iters", "2000", "--out", out])
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(rows) == len(ALGORITHMS)
        assert all("status=diverged" in r for r in rows), rows

    @pytest.mark.parametrize("model, scale", [
        (LossModel("reg_logistic", 1e-5, synth_logistic(50, 4, 0, 1.0), reg_scale=0.5), 1e300),
        (_quadratic_model(), 1e200),
    ], ids=["logistic", "ridge"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_start_ends_diverged(self, model, scale):
        # every entry of the gradient is finite, its norm or f overflows
        x0 = np.full(model.d, scale)
        for algo in ("sarc", "saarc", "sacr", "cr", "acr"):
            res = SOLVERS[algo](model, SolverConfig(), x0)
            assert res.status == "diverged", algo
            assert len(res.trace) == 1 and res.ledger.epochs == 1.0, algo
            assert not (np.isfinite(res.f) and np.isfinite(res.grad_norm)), algo

    @pytest.mark.filterwarnings("error")
    def test_cli_row_of_an_overflowing_start(self, tmp_path, capsys):
        out = str(tmp_path / "t_{algo}.csv")
        code = cli.main(["run", "--algo", "sarc,saarc", "--synth", "100,5,0,1",
                         "--x0-std", "1e200", "--out", out])
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert code == 1 and captured.err == "" and len(rows) == 2
        for algo, row in zip(("sarc", "saarc"), rows):
            assert f"algo={algo} seed=0 status=diverged iters=0 epochs=1.000 " in row
            assert len(read_trace(str(tmp_path / f"t_{algo}.csv"))) == 1


class TestBaselines:
    def test_agd_classical_rate_bound(self):
        # f(x_k) - f* <= 2 L R^2 / (k+1)^2 when the starting L already
        # upper-bounds the curvature, since backtracking then never grows it
        model, c, h = diag_quadratic_problem(d=30, cond=1e3)
        L = float(h.max())
        x0 = np.zeros(30)
        R2 = float(c @ c)
        cfg = SolverConfig(grad_tol=0.0, max_iters=120)
        res = agd_run(model, cfg, x0, L=L)
        by_iter = {r.iteration: r.f for r in res.trace}
        for k in (10, 100):
            assert by_iter[k] <= 2.0 * L * R2 / (k + 1) ** 2 * (1.0 + 1e-9)

    def test_agd_converges_on_logistic(self):
        ds = synth_logistic(120, 5, 2, 1.0)
        model = LossModel("reg_logistic", 1e-3, ds, reg_scale=0.5)
        cfg = SolverConfig(grad_tol=1e-6, max_iters=4000)
        res = agd_run(model, cfg, np.zeros(5))
        assert res.status == "converged"

    def test_sgd_full_batch_descends_monotonically(self):
        model = _quadratic_model()
        cfg = SolverConfig(grad_tol=1e-10, max_iters=200)
        res = sgd_run(model, cfg, np.full(6, 2.0), batch=10**6)
        fs = [r.f for r in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
        # full pass charged n per iteration
        d_epochs = res.trace[1].epochs - res.trace[0].epochs
        assert d_epochs == pytest.approx(1.0)

    def test_sgd_minibatch_epoch_rate(self):
        ds = synth_logistic(100, 4, 3, 1.0)
        model = LossModel("reg_logistic", 1e-4, ds, reg_scale=0.5)
        cfg = SolverConfig(grad_tol=0.0, max_iters=25)
        res = sgd_run(model, cfg, np.zeros(4), batch=32)
        for a, b in zip(res.trace, res.trace[1:]):
            assert b.epochs - a.epochs == pytest.approx(0.32)

    def test_sgd_divergence_guard(self):
        model = _quadratic_model()
        cfg = SolverConfig(grad_tol=0.0, max_iters=500)
        res = sgd_run(model, cfg, np.full(6, 1.0), batch=10**6, step=1e3)
        assert res.status == "diverged"
        assert exit_code(res.status) == 1

    def test_sgd_batch_validation(self):
        with pytest.raises(ValueError):
            sgd_run(_quadratic_model(), SolverConfig(), np.zeros(6), batch=0)

    def test_lbfgs_converges_fast_on_quadratic(self):
        model = _quadratic_model(n=60, d=8, seed=4)
        cfg = SolverConfig(grad_tol=1e-9, max_iters=200)
        res = lbfgs_run(model, cfg, np.zeros(8))
        assert res.status == "converged"
        assert res.grad_norm <= 1e-9
        assert res.trace[-1].iteration < 100

    def test_cr_is_exact_full_sample(self):
        model = _quadratic_model(n=50, d=5, seed=5)
        cfg = SolverConfig(grad_tol=1e-9, max_iters=100)
        res = cr_run(model, cfg, np.full(5, 1.0))
        assert res.status == "converged"
        assert all(r.sample_size == 50 for r in res.trace)
        assert all(r.eps_i is not None for r in res.trace)

    def test_stationary_start_short_circuits(self):
        model = _pure_quadratic(d=4)
        cfg = SolverConfig(grad_tol=1e-12, max_iters=10)
        for runner in (agd_run, lbfgs_run):
            res = runner(model, cfg, np.zeros(4))
            assert res.status == "converged"
            assert len(res.trace) == 1
        res = sgd_run(model, cfg, np.zeros(4), batch=2)
        assert res.status == "converged"

    def test_runs_take_model_config_x0_and_their_own_options_only(self):
        for algo, solver in SOLVERS.items():
            assert list(inspect.signature(solver).parameters)[:3] == ["model", "config", "x0"]
            assert "ledger" not in inspect.signature(solver).parameters, algo
        assert "ledger" not in inspect.signature(sarc_init).parameters
        assert list(inspect.signature(lbfgs_run).parameters) == ["model", "config", "x0"]

    def test_lbfgs_line_search_failure_keeps_last_accepted_iterate(self, monkeypatch):
        # f is +inf everywhere except x0 and the first accepted iterate, so the
        # second line search exhausts its halvings
        model = _quadratic_model()
        x0 = np.full(6, 2.0)
        x1 = lbfgs_run(model, SolverConfig(max_iters=1), x0).x
        real = baselines.full_value

        def value(m, x):
            seen = np.array_equal(x, x0) or np.array_equal(x, x1)
            return real(m, x) if seen else np.inf

        monkeypatch.setattr(baselines, "full_value", value)
        res = lbfgs_run(model, SolverConfig(max_iters=50), x0)
        assert res.status == "linesearch_failed"
        assert len(res.trace) == 2
        assert np.array_equal(res.x, x1)
        assert res.f == real(model, x1) == res.trace[-1].f


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(algo="newton")
        with pytest.raises(ValueError):
            RunSpec(algo="sarc", lam=-1.0)
        with pytest.raises(ValueError):
            RunSpec(algo="sarc", x0_std=-1.0)
        with pytest.raises(ValueError, match=r"^batch must be >= 1, got 0"):
            RunSpec(algo="sgd", batch=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_settings_are_rejected_by_name(self, value):
        with pytest.raises(ValueError, match=r"^x0_std must be finite"):
            RunSpec(algo="sarc", x0_std=value)
        with pytest.raises(ValueError, match=r"^lambda must be finite"):
            RunSpec(algo="sarc", lam=value)

    @pytest.mark.parametrize("name", ["max_iters", "fixed_sample_size", "seed", "batch"])
    def test_integer_settings_must_be_integers(self, name):
        if name == "batch":
            make = lambda v: RunSpec(algo="sgd", batch=v)
        else:
            make = lambda v: SolverConfig(**{name: v})
        for bad in (2.5, 2.0, True, np.float64(3.0)):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
                make(bad)
        make(np.int64(3))
        make(np.uint8(3))

    def test_exit_codes(self):
        expected = {"converged": 0, "stationary": 0, "max_iters": 2, "phase1_exhausted": 2,
                    "diverged": 1, "linesearch_failed": 1, "sequence_growth_failed": 1,
                    "subproblem_failed": 1}
        assert EXIT_CODES == expected
        assert all(exit_code(status) == code for status, code in expected.items())
        assert exit_code("running") == 1  # a status outside the table is a failure


class TestCliGrid:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_run_keeps_the_other_rows(self, tmp_path, capsys, jobs):
        # sgd's trace goes to a directory that does not exist: one run fails
        # after it ran, among good ones
        (tmp_path / "sarc").mkdir()
        out = str(tmp_path / "{algo}" / "{seed}.csv")
        code = cli.main(["run", "--algo", "sarc,sgd", "--synth", "200,4,0,1", "--x0-std", "1",
                         "--max-iters", "30", "--seed", "0,1",
                         "--jobs", str(jobs), "--out", out])
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert code == 1
        assert len(rows) == 4
        assert [r.split()[:2] for r in rows] == [
            ["algo=sarc", "seed=0"], ["algo=sarc", "seed=1"],
            ["algo=sgd", "seed=0"], ["algo=sgd", "seed=1"],
        ]
        assert all("status=converged" in r for r in rows[:2])
        assert all("status=error:FileNotFoundError" in r for r in rows[2:])
        assert "No such file or directory" in captured.err
        assert (tmp_path / "sarc" / "0.csv").exists() and (tmp_path / "sarc" / "1.csv").exists()

    def test_grid_loads_the_dataset_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "load_dataset",
                            lambda *a: calls.append(a) or bench.load_dataset(*a))
        code = cli.main(["run", "--algo", "sarc,cr", "--synth", "200,4,0,1", "--x0-std", "1",
                         "--max-iters", "30", "--seed", "0,1",
                         "--out", str(tmp_path / "{algo}_{seed}.csv")])
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 4
        assert calls == [(None, (200, 4, 0, 1.0))]

    def test_cubic_rows_carry_psd_and_unmet_counts(self, tmp_path, capsys):
        out = str(tmp_path / "{algo}.csv")
        code = cli.main(["run", "--algo", "sarc,cr,sgd", "--synth", "200,4,0,1", "--x0-std", "1",
                         "--max-iters", "30", "--out", out])
        rows = capsys.readouterr().out.splitlines()
        assert code in (0, 2) and len(rows) == 3
        for row in rows[:2]:
            assert " psd_violations=0 unmet=0 out=" in row
        assert "psd_violations" not in rows[2] and "unmet" not in rows[2]

    def test_failed_secular_solve_is_a_named_status(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise cubic.SecularSolveError("secular equation solver did not converge")

        monkeypatch.setattr(cubic, "solve_tridiagonal_cubic", fail)
        out = str(tmp_path / "{algo}.csv")
        code = cli.main(["run", "--algo", "sarc,saarc,sacr,cr,acr", "--synth", "200,4,0,1",
                         "--x0-std", "1", "--max-iters", "30", "--out", out])
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert code == 1 and len(rows) == 5 and captured.err == ""
        for algo, row in zip(("sarc", "saarc", "sacr", "cr", "acr"), rows):
            assert f"algo={algo} seed=0 status=subproblem_failed iters=1 " in row
            trace = read_trace(str(tmp_path / f"{algo}.csv"))
            assert [r.iteration for r in trace] == [0, 1]
            assert trace[-1].success is False and trace[-1].f == trace[0].f

    @pytest.mark.parametrize("seeds", ["", ","])
    def test_empty_seed_list_is_a_usage_error(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--algo", "sarc", "--synth", "50,3,0,1", "--seed", seeds,
                      "--out", str(tmp_path / "t.csv")])
        assert e.value.code == 1
        assert "argument --seed: no seed given" in capsys.readouterr().err

    def test_defaults_come_from_the_config_and_the_spec(self):
        args = cli.build_parser().parse_args(
            ["run", "--algo", "sarc", "--synth", "50,3,0,1", "--out", "t.csv"])
        [spec] = cli._expand_specs(args)
        assert spec.config == SolverConfig()
        plain = RunSpec(algo="sarc")
        assert (spec.lam, spec.x0_std, spec.batch) == (plain.lam, plain.x0_std, plain.batch)
        assert spec == RunSpec(algo="sarc", out="t.csv")

    def _usage_error(self, tmp_path, capsys, *flags, out="{algo}_{seed}.csv",
                     source=("--synth", "50,3,0,1")):
        """Run a two-cell grid with `flags`; return the stderr of its usage error."""
        with pytest.raises(SystemExit) as e:
            cli.main(["run", "--algo", "sarc,sgd", *source, *flags,
                      "--out", str(tmp_path / out)])
        captured = capsys.readouterr()
        assert e.value.code == 1
        assert captured.out == ""  # no rows: nothing ran
        assert not list(tmp_path.iterdir())
        return captured.err

    @pytest.mark.parametrize("flags, field", [
        (["--eps", "2"], "eps"),
        (["--seed", "0,-1"], "seed"),
        (["--max-iters", "-1"], "max_iters"),
        (["--x0-std", "nan"], "x0_std"),
        (["--x0-std", "inf"], "x0_std"),
        (["--batch", "0"], "batch"),
    ])
    def test_bad_setting_is_one_usage_error_before_any_run(self, tmp_path, capsys,
                                                            flags, field):
        err = self._usage_error(tmp_path, capsys, *flags)
        errors = [line for line in err.splitlines() if line.startswith("bench: error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"bench: error: {field} must ")

    @pytest.mark.parametrize("source, message", [
        (("--synth", "0,3,0,1"), "need n, d >= 1"),
        (("--synth", "50,3,0,nan"), "dataset contains non-finite entries"),
        (("--data", "missing.txt"), "No such file or directory: 'missing.txt'"),
    ])
    def test_bad_dataset_is_one_usage_error_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                           source, message):
        monkeypatch.chdir(tmp_path)
        err = self._usage_error(tmp_path, capsys, source=source)
        errors = [line for line in err.splitlines() if line.startswith("bench: error:")]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("out, named", [("{x}.csv", "{x}"), ("{.csv", "expected '}'")])
    def test_bad_out_placeholder_is_a_usage_error(self, tmp_path, capsys, out, named):
        err = self._usage_error(tmp_path, capsys, out=out)
        assert "argument --out: bad placeholder" in err
        assert named in err and "{algo} and {seed}" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        err = self._usage_error(tmp_path, capsys, "--jobs", jobs)
        assert f"argument --jobs: must be >= 1, got {jobs}" in err


class TestTraceIO:
    DATA = synth_logistic(80, 4, 0, 1.0)

    def _spec(self, out, algo="sarc", **settings):
        config = SolverConfig(**{"grad_tol": 1e-8, "max_iters": 120, **settings})
        return RunSpec(algo=algo, lam=1e-4, x0_std=2.0, out=out, config=config)

    def _run(self, out, **kw):
        return run_benchmark(self._spec(out, **kw), self.DATA)

    def test_csv_shape_and_header(self, tmp_path):
        out = str(tmp_path / "t.csv")
        res = self._run(out)
        assert exit_code(res.status) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[7] == ""  # init row has no accept flag
        assert first[8] == "sarc"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._run(a)
        self._run(b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_trace(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self._run(a)
        self._run(b, seed=1)
        assert open(a, "rb").read() != open(b, "rb").read()

    @pytest.mark.parametrize("algo", ["sarc", "saarc", "agd"])
    def test_round_trip_exact(self, tmp_path, algo):
        out = str(tmp_path / "t.csv")
        res = self._run(out, algo=algo)
        back = read_trace(out)
        assert len(back) == len(res.trace)
        for orig, rt in zip(res.trace, back):
            assert rt.iteration == orig.iteration
            assert rt.epochs == orig.epochs  # repr round-trips floats exactly
            assert rt.f == orig.f
            assert rt.grad_norm == orig.grad_norm
            assert rt.sigma == orig.sigma
            assert rt.eps_i == orig.eps_i
            assert rt.sample_size == orig.sample_size
            assert rt.success == orig.success
            assert rt.phase == orig.phase
            assert rt.wall_time == 0.0

    def test_header_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace(str(p))

    ROW = "3,1.5,0.25,0.125,0.1,0.05,40,1,sarc"

    @pytest.mark.parametrize("lines, error", [
        ([], "line 1: expected the header"),
        ([CSV_HEADER, ROW, ROW.rsplit(",", 1)[0]], "line 3: expected 9 cells, got 8"),
        ([CSV_HEADER, ROW, ROW + ",sarc"], "line 3: expected 9 cells, got 10"),
        ([CSV_HEADER, ROW, ROW.replace(",1,sarc", ",2,sarc")],
         "line 3, column 8: bad success cell '2'"),
        ([CSV_HEADER, ROW, ROW.replace("3,", ",", 1)], "line 3, column 1: bad iter cell ''"),
        # forms int() and float() read but _cell never writes, and an unknown phase
        ([CSV_HEADER, ROW, ROW.replace("3,", "1_0,", 1)], "line 3, column 1: bad iter cell '1_0'"),
        ([CSV_HEADER, ROW, ROW.replace(",1.5,", ", 1.5,")],
         "line 3, column 2: bad epochs cell ' 1.5'"),
        ([CSV_HEADER, ROW, ROW.replace(",sarc", ",x")], "line 3, column 9: bad phase cell 'x'"),
    ], ids=["empty", "8_cells", "10_cells", "bad_success", "blank_iter",
            "underscore_int", "spaced_float", "unknown_phase"])
    def test_malformed_trace_rejected_at_its_line(self, tmp_path, lines, error):
        p = tmp_path / "bad.csv"
        p.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=re.escape(error)):
            read_trace(str(p))

    def test_baseline_rows_blank_solver_columns(self, tmp_path):
        out = str(tmp_path / "agd.csv")
        self._run(out, algo="agd", grad_tol=1e-5, max_iters=2000)
        lines = open(out).read().splitlines()
        cells = lines[1].split(",")
        assert cells[4] == "" and cells[5] == "" and cells[6] == ""
        assert cells[8] == ""

    def test_all_algorithms_dispatch(self, tmp_path):
        data = synth_logistic(60, 3, 1, 1.0)
        for algo in ("sarc", "saarc", "sacr", "cr", "acr", "agd", "sgd", "lbfgs"):
            res = run_benchmark(RunSpec(algo=algo, lam=1e-4, x0_std=1.0,
                                        config=SolverConfig(grad_tol=1e-5, max_iters=400)),
                                data)
            assert res.status in EXIT_CODES, (algo, res.status)
            assert exit_code(res.status) in (0, 2), (algo, res.status)
            assert res.trace, algo

    def test_zero_iteration_cap_records_the_start_only(self):
        data = synth_logistic(60, 3, 1, 1.0)
        for algo in ALGORITHMS:
            res = run_benchmark(RunSpec(algo=algo, lam=1e-4, x0_std=1.0,
                                        config=SolverConfig(max_iters=0)), data)
            assert len(res.trace) == 1, algo
            accelerated = algo in ("saarc", "sacr", "acr")
            assert res.status == ("phase1_exhausted" if accelerated else "max_iters"), algo

    def test_benchmark_reg_scale_convention(self):
        # the harness objective uses (lam/2)||x||^2
        spec = self._spec(None)
        ds = synth_logistic(10, 3, 0, 1.0)
        model = build_model(ds, 2.0)
        x = np.ones(3)
        f_with = full_value(model, x)
        f_without = full_value(build_model(ds, 0.0), x)
        assert f_with - f_without == pytest.approx(0.5 * 2.0 * 3.0)
