"""Benchmark of the sarc solvers: time to tolerance end to end, and per-layer
self time from a separate traced run.

    python3 perfbench/run.py --workload accel_200k --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60   # every workload, one table

Run it from the root of a checkout; it imports sarc from ``src/`` there. One
process, one thread: OPENBLAS/OMP/MKL are pinned to a single thread before
numpy loads. With ``--trace 0`` the run solves the workload repeatedly for
about ``--seconds``, times five fresh set-ups in child processes one after the
other, and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced solves and reports the per-layer metrics.
Every solve's outputs are checked against ``reference.json``. The last line
of standard output is one JSON object (correct, attempted, failed, metrics);
details go to ``perfbench/out/``. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from setup_probe import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("hybrid_200k", "krylov_deep", "sparse_highd", "accel_200k")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def load_sarc() -> None:
    """Pin BLAS threads and import numpy/scipy/sarc from the checkout. Exits 2
    without a result when the sources are missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sarc" / "__init__.py").is_file():
        print(f"run.py: no sarc sources under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.special  # noqa: F401  sarc imports it lazily in its first loss call
    import sarc
    if Path(sarc.__file__).resolve().parent != (src / "sarc").resolve():
        print(f"run.py: imported sarc from {sarc.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    import harness
    import setup_probe
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ref = json.loads((BENCH / "reference.json").read_text())[workload.name]
    OUT.mkdir(exist_ok=True)
    stem = result_stem(workload.name, args.seed, args.trace)
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment()}

    if args.trace:
        tracer = Tracer()
        plain, traced = harness.measure_traced(workload, args.seed, args.seconds, ref, tracer)
        outcomes = plain + traced
        tracer.write_jsonl(f"{stem}.spans.jsonl")
        metrics, samples = harness.per_layer(plain, traced, tracer.spans)
        if metrics:
            total = metrics["traced_solve_s"][0]
            report["layer_split"] = {name[:-len(".self_s")]: round(value / total, 4)
                                     for name, (value, _) in metrics.items()
                                     if name.endswith(".self_s")}
    else:
        outcomes, builds = harness.measure(workload, args.seed, args.seconds, ref)
        setups = setup_probe.measure(workload.name, args.seed)
        metrics, samples = harness.end_to_end(outcomes, setups)
        report.update(setup_s_samples=setups, build_s=builds)

    failed = [o for o in outcomes if o.error is not None]
    by_type: dict[str, int] = {}
    for o in failed:
        by_type[o.error] = by_type.get(o.error, 0) + 1
    digests = sorted({o.digest for o in outcomes if o.digest})
    correct = not failed and len(metrics) > 0

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"solves {len(outcomes)}  failed_frac {len(failed)}/{len(outcomes)} {by_type or ''}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit:8s} n={samples.get(name, 1)}")
    for o in failed:
        print(f"  FAILED {o.error}: {o.detail.strip()}")
    if "layer_split" in report:
        split = sorted(report["layer_split"].items(), key=lambda kv: -kv[1])
        print("  self-time split " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in split))
    print(f"  trace sha256 {' '.join(digests)}")
    print(f"  env {json.dumps(report['env'])}")

    report.update({
        "correct": correct, "failures": by_type, "trace_sha256": digests,
        "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k, 1)}
                    for k, (v, u) in metrics.items()},
        "solves": [{"seconds": o.seconds, "error": o.error, "detail": o.detail,
                    "status": o.status, "iters": o.iters, "epochs": o.epochs, "f": o.f,
                    "grad_norm": o.grad_norm, "digest": o.digest, "traced": o.solve_id >= 0}
                   for o in outcomes],
    })
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if args.trace or k in harness.END_TO_END},
    }))
    return 0 if correct else 1


def result_stem(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}"


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload), then
    one table of every metric: value, unit and sample count."""
    reports, code = {}, 0
    for name in WORKLOAD_NAMES:
        report = Path(f"{result_stem(name, args.seed, args.trace)}.json")
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        if proc.returncode in (0, 1) and report.is_file():
            reports[name] = json.loads(report.read_text())
    print(f"\nsummary: seed {args.seed}, trace {args.trace}, about {args.seconds} s per workload")
    print(f"  {'':40s}" + "".join(f"{name:>26s}" for name in WORKLOAD_NAMES))
    cells = []
    for name in WORKLOAD_NAMES:
        r = reports.get(name)
        failed = r and sum(1 for o in r["solves"] if o["error"])
        cells.append("no result" if r is None else
                     f"{'ok' if r['correct'] else 'FAILED'} {failed}/{len(r['solves'])}")
    print(f"  {'checks, failed_frac':40s}" + "".join(f"{c:>26s}" for c in cells))
    metrics = list(dict.fromkeys(k for r in reports.values() for k in r["metrics"]))
    for metric in metrics:
        cells = []
        for name in WORKLOAD_NAMES:
            m = reports.get(name, {}).get("metrics", {}).get(metric)
            cells.append("-" if m is None else f"{_fmt(m['value'])} {m['unit']} n={m['samples']}")
        print(f"  {metric:40s}" + "".join(f"{c:>26s}" for c in cells))
    return int(bool(code) or len(reports) < len(WORKLOAD_NAMES))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_sarc()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
