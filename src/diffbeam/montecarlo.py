"""Monte Carlo robustness studies over random array geometries.

A study is one `TrialConfig`, whose ``target`` is the `SteeredTarget`
every trial designs for, as `design_filter` takes it. Each trial draws a
fresh geometry from a per-trial seed, designs the filter, and evaluates
the metrics; mean and standard deviation are aggregated in the dB domain
across trials. Per-trial seeds are derived by splitting the master seed
with the trial index, one 32-bit word, all in one stacked hash, and the
geometries are sampled as stacks of trials before any chunk runs. Chunks
of sampled arrays are then designed and scored as stacks, over harmonics
fixed by the configuration, so no result depends on which trials share a
chunk; one ledger holds every failed trial. The rows are reduced in
trial-index order, so the statistics are identical no matter how many
workers execute the chunks.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._seeding import trial_seeds
from .errors import AllTrialsFailedError
from .geometry import PhysicalConstants, sample_element_stack
from .metrics import (
    check_floor_db,
    coefficient_gains,
    equispaced_pattern,
    magnitude_db,
    parseval_reach,
    pattern_coefficients,
    power_db,
)
from .modal import ELEMENT_MODELS, check_reach, element_harmonics, model_values
from .patterns import SteeredTarget
from .solver import FrequencyGrid, design_weights, rank_deficiency

STATISTICS_FLOOR_DB = -120.0


@dataclass(frozen=True)
class TrialConfig:
    """Everything one experiment needs, fixed up front.

    ``target`` is the steered pattern every trial designs for, as
    `design_filter` takes it; `fileio.pattern_from_config` builds it from a
    pattern section. ``eval_frequency_hz`` (where the beampattern statistics
    are taken) must be a point of the design grid; metrics are never
    interpolated.
    """

    trials: int
    element_count: int
    target: SteeredTarget
    aperture_radius: float
    min_spacing: float
    grid: FrequencyGrid
    eval_frequency_hz: float
    master_seed: int
    element_model: str = "first_order"
    speed_of_sound: float = 343.0
    angle_count: int = 360
    db_floor: float = STATISTICS_FLOOR_DB
    # the grid index of eval_frequency_hz, looked up once here
    eval_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_trials(self.trials)
        if not (math.isfinite(self.aperture_radius) and self.aperture_radius > 0.0):
            raise ValueError(
                f"aperture_radius must be positive and finite, got {self.aperture_radius!r} m"
            )
        if not (math.isfinite(self.min_spacing) and self.min_spacing >= 0.0):
            raise ValueError(
                f"min_spacing must be non-negative and finite, got {self.min_spacing!r} m"
            )
        check_floor_db(self.db_floor, "db_floor")
        if self.element_model not in ELEMENT_MODELS:
            raise ValueError(f"unknown element model {self.element_model!r}")
        order = self.target.order
        if self.element_count < 2 * order + 1:
            raise ValueError(f"order {order} needs at least {2 * order + 1} elements")
        object.__setattr__(self, "eval_index", self.grid.index(self.eval_frequency_hz))
        PhysicalConstants(speed_of_sound=self.speed_of_sound)  # refuses c <= 0, inf, nan
        # before any trial is sampled: every element lies within the aperture
        check_reach(self.aperture_radius, np.max(self.grid.omegas), self.speed_of_sound,
                    "aperture radius")


def check_trials(trials) -> int:
    """``trials`` if it is an integer from 1 to 2**32 - 1, so that every trial
    index is one seed word: the seeds of 2**32 trials alone take 32 GiB."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if trials >= 1 << 32:
        raise ValueError(f"trials must be below 2**32, got {trials}")
    return trials


@dataclass(frozen=True)
class TrialFailure:
    index: int
    reason: str


@dataclass(frozen=True)
class TrialStatistics:
    """Per-angle and per-frequency mean/std in dB over successful trials."""

    angles_deg: np.ndarray  # (K,)
    bp_mean_db: np.ndarray  # (K,) at eval_frequency_hz
    bp_std_db: np.ndarray  # (K,)
    frequencies_hz: np.ndarray  # (F,)
    wng_mean_db: np.ndarray  # (F,)
    wng_std_db: np.ndarray  # (F,)
    df_mean_db: np.ndarray  # (F,)
    df_std_db: np.ndarray  # (F,)
    eval_frequency_hz: float
    trials: int
    failures: tuple[TrialFailure, ...] = field(default_factory=tuple)

    @property
    def successes(self) -> int:
        return self.trials - len(self.failures)


def trial_seed(master_seed: int, index: int) -> int:
    """Splittable per-trial seed: independent of scheduling, stable forever.

    ``np.random.SeedSequence([master_seed, index]).generate_state(1,
    np.uint64)[0]``, by the stacked hash that seeds a whole study; ``index``
    is one 32-bit word, from 0 to 2**32 - 1.
    """
    index = int(index)
    return int(trial_seeds(int(master_seed), index, index + 1)[0])


# trials per chunk hold a chunk's harmonic tensor to about this many complex
# values, 1 MiB. Memory, not speed, sets the budget: on the 80-point desk grid,
# 8 trials a chunk instead of 2 cut a study's chunk work from 6.50 to 5.36 ms
# (-17.5%) but added 9.6 MB of peak RSS
CHUNK_ELEMENTS = 1 << 16


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_memory() -> bool:
    """Keep freed memory in this process's heap; True when the policy applied.

    glibc hands a freed block above its mmap threshold, and a free heap top
    above its trim threshold, back to the kernel, so each chunk faults its
    few MB of tensor temporaries in again. Both thresholds must sit above a
    chunk's largest allocation and above its whole freed working set: the
    mmap threshold goes to 32 MiB, glibc's 64-bit maximum, and the trim
    threshold to 128 MiB. Setting either one stops glibc from adjusting
    both, so the other stays at its 128 KiB default: an 8-trial desk study
    faulted in about 2,900 pages with neither set, 3,000-3,400 with one of
    them, and none with both.

    The policy holds for the whole process, so only a program's entry point
    calls this, never library code or an import. Under another C library,
    or where ``mallopt`` cannot be found, it does nothing and returns False.
    A second call does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    return bool(mmap_set and trim_set)


def _parseval_reach(config: TrialConfig) -> int:
    """The reach L of the harmonics every trial of the study is scored over.

    It covers the largest normalized aperture any trial can have, the
    aperture radius at the top of the grid, so no result depends on which
    trials share a chunk.
    """
    return parseval_reach(
        config.target.order, np.max(config.grid.omegas), config.aperture_radius,
        config.speed_of_sound,
    )


def chunk_trials(config: TrialConfig) -> int:
    """Trials per chunk, from the sizes of the study alone.

    A trial builds a harmonic tensor of elements x grid points x harmonics
    values and a pattern of one value per angle. The tensor is freed once
    the pattern coefficients are formed, before the pattern is built, so a
    trial is budgeted the larger of the two.
    """
    harmonics = 2 * _parseval_reach(config) + 1
    per_trial = max(config.element_count * config.grid.count * harmonics, config.angle_count)
    return max(1, CHUNK_ELEMENTS // per_trial)


def _run_chunk(
    config: TrialConfig, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """Design and score a block of sampled arrays ``values`` (4, T, M) as one stack:
    the bp (S, K) rows at ``eval_frequency_hz`` and WNG and DF (S, F) rows in dB
    of the S trials the rank gate designs, and a (position, reason) pair for
    each trial it refuses, the reason the error `design_filter` raises for it."""
    grid, target = config.grid, config.target
    xi = element_harmonics(values, grid.omegas, _parseval_reach(config), config.speed_of_sound)
    # first-order designs from the arrays' own tensor; omni builds its q = 0 rows
    model = xi if config.element_model == "first_order" else element_harmonics(
        model_values(values, "omni"), grid.omegas, target.order, config.speed_of_sound)
    weights, refused, condition = design_weights(model, target)
    del model
    designed = ~refused.any(axis=1)
    refusals = [
        (t, str(rank_deficiency(float(condition[t, f]), float(grid.frequencies_hz[f]))))
        for t, f in zip(np.flatnonzero(~designed), np.argmax(refused[~designed], axis=1))
    ]
    coefficients = pattern_coefficients(xi, weights)[designed]  # (S, F, K)
    del xi  # before the pattern is built, as `chunk_trials` budgets
    weights = weights[designed]

    bp = equispaced_pattern(coefficients[:, config.eval_index], config.angle_count)
    wng, df = coefficient_gains(coefficients, weights, target.theta_s)
    return magnitude_db(bp, floor_db=config.db_floor), power_db(wng), power_db(df), refusals


def _mean_std(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``table.mean(axis=0)`` and ``table.std(axis=0)``, the same bits: the
    ufuncs NumPy's own reductions run, in their order, with the squared
    deviations formed in ``table``, which is overwritten."""
    count = table.shape[0]
    mean = table.sum(axis=0)
    np.true_divide(mean, count, out=mean)
    np.subtract(table, mean, out=table)
    np.square(table, out=table)
    var = table.sum(axis=0)
    np.true_divide(var, count, out=var)
    return mean, np.sqrt(var, out=var)


def run_trials(config: TrialConfig, workers: int = 1) -> TrialStatistics:
    """Run the experiment and aggregate mean/std in the dB domain.

    The calling thread seeds and samples every trial first, in stacked
    batches. The sampled arrays run in blocks of `chunk_trials`, one stack
    per layer each, and ``workers`` threads share out the blocks. Failed
    trials (infeasible geometries, rank-deficient systems) never enter the
    statistics; one ledger counts and reports them. The blocks depend on
    ``config`` alone and are reduced in trial-index order, so the result
    is a pure function of ``config`` regardless of ``workers``.

    Raises
    ------
    MemoryError
        When one chunk's pattern cannot be allocated, before any trial is drawn.
    AllTrialsFailedError
        When not a single trial produced a design.
    """
    # a pattern no chunk can allocate is refused before any trial is drawn
    np.empty((chunk_trials(config), config.angle_count), dtype=complex)
    values, reasons = sample_element_stack(
        config.element_count, config.aperture_radius, config.min_spacing,
        trial_seeds(int(config.master_seed), 0, config.trials),
    )
    failures = [TrialFailure(i, reason) for i, reason in enumerate(reasons) if reason is not None]
    sampled = np.flatnonzero([reason is None for reason in reasons])
    values = values[:, sampled]
    size = chunk_trials(config)
    starts = range(0, sampled.size, size)
    blocks = [values[:, start : start + size] for start in starts]
    run = functools.partial(_run_chunk, config)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(block) for block in blocks]

    failures += [TrialFailure(int(sampled[start + t]), reason)
                 for start, (*_, refusals) in zip(starts, results) for t, reason in refusals]
    failures.sort(key=lambda failure: failure.index)
    if len(failures) == config.trials:
        raise AllTrialsFailedError(
            f"all {config.trials} trials failed; first reason: {failures[0].reason}"
        )

    # each statistic's table, of bp, WNG and DF rows in turn, is reduced, and
    # freed, before the next is joined
    (bp_mean, bp_std), (wng_mean, wng_std), (df_mean, df_std) = (
        _mean_std(np.concatenate([r[row] for r in results])) for row in range(3)
    )
    return TrialStatistics(
        angles_deg=360.0 * np.arange(config.angle_count) / config.angle_count,
        bp_mean_db=bp_mean,
        bp_std_db=bp_std,
        frequencies_hz=config.grid.frequencies_hz,
        wng_mean_db=wng_mean,
        wng_std_db=wng_std,
        df_mean_db=df_mean,
        df_std_db=df_std,
        eval_frequency_hz=config.eval_frequency_hz,
        trials=config.trials,
        failures=tuple(failures),
    )
