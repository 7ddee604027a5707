"""Set-up time of one workload in a fresh interpreter: import numpy, scipy
and sarc, then generate the data and build the LossModel.

    python3 perfbench/setup_probe.py accel_200k 0   # prints the seconds

run.py starts it several times, one process after the other, and reports the
median as ``setup_s``, so that work moved into import or problem
construction shows, and one slow import does not decide the figure.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60


def measure(workload: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    """Seconds of `runs` fresh set-ups of `workload`, each in its own process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), workload, str(seed)]
    return [float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                                 cwd=BENCH.parent, timeout=SETUP_TIMEOUT_S).stdout)
            for _ in range(runs)]


def main(workload: str, seed: str) -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    t = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    import scipy.special  # noqa: F401  sarc imports it lazily in its first loss call
    import sarc  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload].build(int(seed))
    print(time.perf_counter() - t)


if __name__ == "__main__":
    main(*sys.argv[1:])
