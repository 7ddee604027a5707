"""Command-line benchmark front end.

    bench run --algo sarc --synth 1000,20,0,1 --lambda 1e-5 --out trace.csv

Exit codes (`bench.EXIT_CODES`): 0 when the gradient tolerance is reached,
2 on the iteration cap, 1 on any error (including usage errors, diverged
runs, line-search failures and failed estimating-sequence growth or audits).
Multiple comma-separated algorithms/seeds expand to a grid of runs; --jobs
runs them in parallel, and --out must then contain {algo} / {seed}
placeholders as needed to keep output files distinct. The dataset is
loaded once for the whole grid; a bad setting or dataset is a usage error
before any run starts. A run that raises prints a
`status=error:<ExceptionType>` row (message and traceback on stderr) and the
other rows are kept; any error row makes the exit code 1.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .bench import ALGORITHMS, RunSpec, exit_code, load_dataset, run_benchmark
from .problems import Dataset
from .sarc_driver import SolverConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this tool reserves for the
    # iteration cap; remap usage problems to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_synth(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected n,d,seed,skew")
    try:
        return int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_algos(text: str):
    algos = [a.strip() for a in text.split(",") if a.strip()]
    if not algos:
        raise argparse.ArgumentTypeError("no algorithm given")
    for a in algos:
        if a not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {a!r} (choose from {', '.join(ALGORITHMS)})"
            )
    return algos


def _parse_seeds(text: str):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not seeds:
        raise argparse.ArgumentTypeError("no seed given")
    return seeds


def _parse_out(text: str):
    try:
        text.format(algo="sarc", seed=0)
    except (KeyError, IndexError, ValueError, AttributeError) as exc:
        bad = f"{{{exc.args[0]}}}" if isinstance(exc, KeyError) else f"({exc})"
        raise argparse.ArgumentTypeError(
            f"bad placeholder {bad} in {text!r}; the placeholders are {{algo}} and {{seed}}"
        ) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bench", description="second-order benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one algorithm on one dataset")
    run.add_argument("--algo", required=True, type=_parse_algos,
                     help=f"one of {', '.join(ALGORITHMS)}, or a comma list")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="LIBSVM text file")
    src.add_argument("--synth", type=_parse_synth, metavar="N,D,SEED,SKEW",
                     help="synthetic logistic data")
    run.add_argument("--lambda", dest="lam", type=float, default=RunSpec.lam,
                     help="regularization weight (default %(default)s)")
    run.add_argument("--scheme", choices=("uniform", "nonuniform"), default=SolverConfig.scheme)
    run.add_argument("--eps", type=float, default=SolverConfig.eps,
                     help="target optimality driving sample sizes")
    run.add_argument("--delta", type=float, default=SolverConfig.delta,
                     help="total sampling failure probability")
    run.add_argument("--seed", type=_parse_seeds, default=[SolverConfig.seed],
                     help="RNG seed, or a comma list")
    run.add_argument("--out", required=True, type=_parse_out,
                     help="trace CSV path; use {algo}/{seed} placeholders for grids")
    run.add_argument("--grad-tol", type=float, default=SolverConfig.grad_tol)
    run.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    run.add_argument("--x0-std", type=float, default=RunSpec.x0_std,
                     help="stddev of the Gaussian initial point; the cubic methods stall "
                          "at max_iters from the default on logistic loss, try 1.0")
    run.add_argument("--batch", type=int, default=RunSpec.batch, help="SGD batch size")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel processes for grid runs")
    return parser


def _expand_specs(args) -> list[RunSpec]:
    """One spec per (algo, seed) cell; a bad setting raises ValueError."""
    config = SolverConfig(eps=args.eps, delta=args.delta, scheme=args.scheme,
                          grad_tol=args.grad_tol, max_iters=args.max_iters)
    specs = [
        RunSpec(algo=algo, lam=args.lam, x0_std=args.x0_std, batch=args.batch,
                out=args.out.format(algo=algo, seed=seed), config=replace(config, seed=seed))
        for algo in args.algo
        for seed in args.seed
    ]
    outs = [s.out for s in specs]
    if len(set(outs)) != len(outs):
        raise ValueError(
            "grid runs need {algo}/{seed} placeholders in --out to keep files distinct"
        )
    return specs


def _run_one(spec: RunSpec, dataset: Dataset) -> tuple[str, int, str | None]:
    """One grid row: its output line, exit code and error report (message and
    traceback; None unless the run raised)."""
    head = f"algo={spec.algo} seed={spec.config.seed}"
    try:
        result = run_benchmark(spec, dataset)
    except Exception as exc:  # noqa: BLE001 - one failed run must not discard the grid
        report = f"{head}: {exc}\n{traceback.format_exc().rstrip()}"
        return f"{head} status=error:{type(exc).__name__} out={spec.out}", 1, report
    counts = ""
    if result.phase:  # the cubic methods; the baselines' phase is blank
        counts = f"unmet={result.unmet_subproblems} "
    line = (
        f"{head} status={result.status} iters={len(result.trace) - 1} "
        f"epochs={result.ledger.epochs:.3f} f={result.f:.6e} "
        f"grad_norm={result.grad_norm:.3e} {counts}out={spec.out}"
    )
    return line, exit_code(result.status), None


# The grid's dataset in a worker process, set once by the pool's initializer
# so that no cell pickles it again.
_worker_dataset: Dataset | None = None


def _hold(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_cell(spec: RunSpec) -> tuple[str, int, str | None]:
    return _run_one(spec, _worker_dataset)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    try:
        specs = _expand_specs(args)
        dataset = load_dataset(args.data, args.synth)
    except (ValueError, OSError) as exc:  # a bad setting or dataset stops the grid
        parser.error(str(exc))
    try:
        if args.jobs > 1 and len(specs) > 1:
            with ProcessPoolExecutor(max_workers=args.jobs, initializer=_hold,
                                     initargs=(dataset,)) as pool:
                rows = list(pool.map(_run_cell, specs))
        else:
            rows = [_run_one(spec, dataset) for spec in specs]
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(f"bench: error: {exc}\n")
        return 1
    for line, _, error in rows:
        print(line)
        if error is not None:
            sys.stderr.write(f"bench: error: {error}\n")
    codes = {rc for _, rc, _ in rows}
    return 1 if 1 in codes else max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
