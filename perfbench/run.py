"""Layered benchmark for diffbeam: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the workload, the environment,
the correctness checks and the run report. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# one BLAS thread per caller: the Monte Carlo check runs nproc workers, so
# worker threads plus BLAS threads stay at nproc; set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="design, evaluate, montecarlo or montecarlo_narrow")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time; whole passes over the workload's calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: a fraction of the work, no reference comparison")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "diffbeam" / "__init__.py").is_file():
        print("error: no src/diffbeam here; run from the root of a diffbeam checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import numpy  # noqa: F401  (import time is part of set-up)
    import scipy.linalg  # noqa: F401
    import diffbeam.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import harness

    return harness.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
