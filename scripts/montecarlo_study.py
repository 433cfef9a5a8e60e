#!/usr/bin/env python3
"""The three Monte Carlo robustness experiments over random geometries.

1. minimal-m:  hypercardioid orders 1..3 with the minimum element count
               M = 2N+1 each.
2. elements:   fixed order N=2 with M = 5, 9, 13.
3. fixed-m:    orders 1..3 at fixed M = 9.

Each configuration writes bp_stats/wng_stats/df_stats CSVs plus a
failure report into its own subdirectory. Orders >= 3 use a design grid
starting at 300 Hz: below that, at this aperture, the outermost harmonic
rows underflow the solver's rank gate and every trial would be refused.
The experiments share two configurations (N=2 at M=5 and at M=9); each
distinct configuration runs once and writes into every subdirectory that
names it, so all three experiments run seven studies for nine
subdirectories.

Desk scale (500 trials) takes 4.0-4.7 s for the seven studies at one
worker (0.2-0.9 s per study) and 3.9-4.6 s at --threads 2, in three
runs of each; the full-scale run, --trials 10000, takes about 84 s at
--threads 2. Python 3.11, NumPy 2.4, glibc 2.36, 2-vCPU Xeon host
shared with other tenants, so single runs vary by about 10%. The CSVs
are byte-identical for any --threads. Arguments no study can run with
(--threads below 1, --seed below 0, --trials outside 1 to 2**32 - 1)
are refused with a usage error before anything is written.

The whole script's peak RSS is about 45 MB at desk scale at one worker
(52 MB at --threads 2) and 140 MB at full scale at --threads 2 (184 MB
before the chunks and the reduction held each array once). Most of the
full-scale figure is one configuration's results: a 10,000-trial N=2,
M=9 study peaks about 82 MB above its start, its 10,000 x 360
beampattern rows (29 MB) held once by the chunks and once joined.

Each study's line names its subdirectories and gives the minor page
faults of its run. `keep_freed_memory` keeps freed memory in the process
heap, so after the first study a desk-scale run faults in tens to a few
hundred pages instead of one chunk's working set per chunk.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from diffbeam import FrequencyGrid, TrialConfig, run_trials
from diffbeam.fileio import pattern_from_config, write_study
from diffbeam.montecarlo import check_trials, keep_freed_memory

APERTURE_M = 0.02
SPACING_M = 0.008
EVAL_HZ = 1000.0

# 50 Hz steps so the 1 kHz evaluation point lies on both grids
FULL_GRID = FrequencyGrid(50.0, 4000.0, 80)
HIGH_ORDER_GRID = FrequencyGrid(300.0, 4000.0, 75)


def experiment_configs(name, trials, seed):
    def config(order, elements, grid):
        target, _, _ = pattern_from_config(
            {"family": "hypercardioid", "order": order, "steer_deg": 60.0}
        )
        return TrialConfig(
            trials=trials,
            element_count=elements,
            target=target,
            aperture_radius=APERTURE_M,
            min_spacing=SPACING_M,
            grid=grid,
            eval_frequency_hz=EVAL_HZ,
            master_seed=seed,
        )

    def grid_for(order):
        return HIGH_ORDER_GRID if order >= 3 else FULL_GRID

    if name == "minimal-m":
        return [(f"n{n}_m{2 * n + 1}", config(n, 2 * n + 1, grid_for(n))) for n in (1, 2, 3)]
    if name == "elements":
        return [(f"n2_m{m}", config(2, m, FULL_GRID)) for m in (5, 9, 13)]
    if name == "fixed-m":
        return [(f"n{n}_m9", config(n, 9, grid_for(n))) for n in (1, 2, 3)]
    raise ValueError(f"unknown experiment {name!r}")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    keep_freed_memory()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument(
        "--experiment",
        choices=("minimal-m", "elements", "fixed-m", "all"),
        default="all",
    )
    args = parser.parse_args(argv)
    for flag, minimum in (("seed", 0), ("threads", 1)):
        value = getattr(args, flag)
        if value < minimum:
            parser.error(f"argument --{flag}: must be >= {minimum}, got {value}")
    try:
        check_trials(args.trials)
    except ValueError as err:
        parser.error(f"argument --trials: {err}")

    names = (
        ("minimal-m", "elements", "fixed-m")
        if args.experiment == "all"
        else (args.experiment,)
    )
    # the subdirectories of each distinct configuration, in the order they come
    studies: dict[TrialConfig, list[str]] = {}
    for name in names:
        for tag, config in experiment_configs(name, args.trials, args.seed):
            studies.setdefault(config, []).append(f"{name}/{tag}")
    for config, places in studies.items():
        faults = minor_faults()
        started = time.perf_counter()
        stats = run_trials(config, workers=args.threads)
        elapsed = time.perf_counter() - started
        faults = minor_faults() - faults
        for place in places:
            write_study(args.out / place, stats)
        print(
            f"{', '.join(places)}: {stats.successes}/{stats.trials} trials ok, "
            f"worst bp std {stats.bp_std_db.max():.2f} dB, {elapsed:.1f}s, "
            f"{faults} minor page faults"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
