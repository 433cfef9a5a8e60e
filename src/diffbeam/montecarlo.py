"""Monte Carlo robustness studies over random array geometries.

Each trial draws a fresh geometry from a per-trial seed, designs the
filter, and evaluates the metrics; mean and standard deviation are
aggregated in the dB domain across trials. Per-trial seeds are derived by
splitting the master seed with the trial index, all in one stacked hash,
and the geometries are sampled as stacks of trials before any chunk runs.
Trials then run in chunks; a chunk's designs and metrics are each
computed as one stack, over harmonics fixed by the configuration, so no
result depends on where the chunk boundaries fall. The reduction runs in
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
from .geometry import STACK_WINDOW, PhysicalConstants, sample_element_stack
from .metrics import (
    coefficient_gains,
    equispaced_pattern,
    magnitude_db,
    parseval_harmonics,
    pattern_coefficients,
    power_db,
)
from .modal import check_reach, element_harmonics
from .patterns import SteeredTarget, a_to_b, resolve_pattern
from .solver import FrequencyGrid, design_weights, rank_deficiency

STATISTICS_FLOOR_DB = -120.0


@dataclass(frozen=True)
class TrialConfig:
    """Everything one experiment needs, fixed up front.

    ``eval_frequency_hz`` (where the beampattern statistics are taken)
    must be a point of the design grid; metrics are never interpolated.
    """

    trials: int
    element_count: int
    order: int
    steer_deg: float
    aperture_radius: float
    min_spacing: float
    grid: FrequencyGrid
    eval_frequency_hz: float
    master_seed: int
    pattern_family: str = "hypercardioid"
    custom_a: tuple[float, ...] | None = None
    element_model: str = "first_order"
    speed_of_sound: float = 343.0
    angle_count: int = 360
    db_floor: float = STATISTICS_FLOOR_DB

    def __post_init__(self):
        trials = self.trials
        if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
        if not (math.isfinite(self.aperture_radius) and self.aperture_radius > 0.0):
            raise ValueError(
                f"aperture_radius must be positive and finite, got {self.aperture_radius!r} m"
            )
        if not (math.isfinite(self.min_spacing) and self.min_spacing >= 0.0):
            raise ValueError(
                f"min_spacing must be non-negative and finite, got {self.min_spacing!r} m"
            )
        if not math.isfinite(self.db_floor):
            raise ValueError(f"db_floor must be finite, got {self.db_floor!r} dB")
        if self.element_count < 2 * self.order + 1:
            raise ValueError(
                f"order {self.order} needs at least {2 * self.order + 1} elements"
            )
        self.grid.index(self.eval_frequency_hz)
        PhysicalConstants(speed_of_sound=self.speed_of_sound)  # refuses c <= 0, inf, nan
        # before any trial is sampled: every element lies within the aperture
        check_reach(self.aperture_radius, np.max(self.grid.omegas), self.speed_of_sound,
                    "aperture radius")

    def target(self) -> tuple[SteeredTarget, str]:
        coeffs, pattern_id = resolve_pattern(
            self.pattern_family, self.order, self.custom_a
        )
        return (
            SteeredTarget(coefficients=a_to_b(coeffs), theta_s=math.radians(self.steer_deg)),
            pattern_id,
        )


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
    np.uint64)[0]``, by the stacked hash that seeds a whole study.
    """
    index = int(index)
    return int(trial_seeds(int(master_seed), index, index + 1)[0])


# trials per chunk hold a chunk's harmonic tensor to about this many complex
# values, 1 MiB. Memory, not speed, sets the budget: on the 80-point desk grid,
# 8 trials a chunk instead of 2 cut a study's chunk work from 6.50 to 5.36 ms
# (-17.5%) but added 9.6 MB of peak RSS
CHUNK_ELEMENTS = 1 << 16

# trials per sampling batch hold their stream windows to about this many
# doubles, 1 MiB
SAMPLE_BATCH_DOUBLES = 1 << 17


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


def _parseval_harmonics(config: TrialConfig) -> np.ndarray:
    """Harmonics ``n = -L .. L`` every trial of the study is scored over.

    They reach the largest normalized aperture any trial can have, the
    aperture radius at the top of the grid, so no result depends on which
    trials share a chunk.
    """
    return parseval_harmonics(
        config.order, np.max(config.grid.omegas), config.aperture_radius,
        config.speed_of_sound,
    )


def chunk_trials(config: TrialConfig) -> int:
    """Trials per chunk, from the sizes of the study alone.

    A trial builds a harmonic tensor of elements x grid points x harmonics
    values and a pattern of one value per angle. The tensor is freed once
    the pattern coefficients are formed, before the pattern is built, so a
    trial is budgeted the larger of the two.
    """
    harmonics = _parseval_harmonics(config).size
    per_trial = max(config.element_count * config.grid.count * harmonics, config.angle_count)
    return max(1, CHUNK_ELEMENTS // per_trial)


@dataclass(frozen=True)
class _ChunkResult:
    bp_db: np.ndarray  # (S, K) at eval_frequency_hz, over the chunk's S successes
    wng_db: np.ndarray  # (S, F)
    df_db: np.ndarray  # (S, F)
    failures: list[TrialFailure]


def _sample_trials(config: TrialConfig) -> tuple[np.ndarray, list[str | None]]:
    """Every trial's element values (4, T, M) and failure reason, in trial order.

    The trials are sampled in batches of `sample_element_stack`, each
    batch's windows held to ``SAMPLE_BATCH_DOUBLES``.
    """
    seeds = trial_seeds(int(config.master_seed), 0, config.trials)
    batch = max(1, SAMPLE_BATCH_DOUBLES // (STACK_WINDOW * config.element_count))
    stacks = [
        sample_element_stack(
            config.element_count, config.aperture_radius, config.min_spacing,
            seeds[start : start + batch],
        )
        for start in range(0, config.trials, batch)
    ]
    values = np.concatenate([stack for stack, _ in stacks], axis=1)
    return values, [reason for _, reasons in stacks for reason in reasons]


def _run_chunk(
    config: TrialConfig,
    target: SteeredTarget,
    indices: range,
    values: np.ndarray,
    reasons: list[str | None],
) -> _ChunkResult:
    """Design and score a run of trials, sampled as ``values`` (4, T, M), as one stack.

    A trial fails when its geometry could not be sampled (its reason is
    not None) or the rank gate refuses any of its grid frequencies; its
    reason is the error that `sample_random_geometry` or `design_filter`
    raises for it.
    """
    sampled = np.array([reason is None for reason in reasons])
    kept = [index for index, ok in zip(indices, sampled) if ok]
    failures = [
        TrialFailure(index=index, reason=reason)
        for index, reason in zip(indices, reasons)
        if reason is not None
    ]
    empty = _ChunkResult(
        np.empty((0, config.angle_count)), np.empty((0, config.grid.count)),
        np.empty((0, config.grid.count)), failures,
    )
    if not kept:
        return empty

    grid = config.grid
    values = values[:, sampled]
    n_values = _parseval_harmonics(config)
    xi = element_harmonics(values, grid.omegas, n_values, config.speed_of_sound)
    weights, refused, condition = design_weights(
        values, grid.omegas, target, config.element_model, config.speed_of_sound,
        harmonics=xi,
    )
    for t in np.flatnonzero(refused.any(axis=1)):
        f = int(np.argmax(refused[t]))
        error = rank_deficiency(float(condition[t, f]), float(grid.frequencies_hz[f]))
        failures.append(TrialFailure(index=kept[t], reason=str(error)))
    failures.sort(key=lambda failure: failure.index)
    designed = ~refused.any(axis=1)
    if not designed.any():
        return empty
    coefficients = pattern_coefficients(xi, weights)[designed]  # (S, F, K)
    del xi  # before the pattern is built, as `chunk_trials` budgets
    weights = weights[designed]

    eval_index = grid.index(config.eval_frequency_hz)
    bp = equispaced_pattern(coefficients[:, eval_index], n_values, config.angle_count)
    wng, df = coefficient_gains(coefficients, weights, n_values, target.theta_s)
    return _ChunkResult(
        magnitude_db(bp, floor_db=config.db_floor), power_db(wng), power_db(df), failures
    )


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
    batches. Trials then run in chunks of `chunk_trials`, one stack per
    layer each, and ``workers`` threads share out the chunks. Failed
    trials (rank-deficient systems, infeasible geometries) never enter the
    statistics; they are counted and reported. The chunks depend on
    ``config`` alone and are reduced in trial-index order, so the result
    is a pure function of ``config`` regardless of ``workers``.

    Raises
    ------
    AllTrialsFailedError
        When not a single trial produced a design.
    """
    target, _ = config.target()
    values, reasons = _sample_trials(config)
    size = chunk_trials(config)
    chunks = [range(s, min(s + size, config.trials)) for s in range(0, config.trials, size)]
    pieces = [(c, values[:, c.start : c.stop], reasons[c.start : c.stop]) for c in chunks]
    run = functools.partial(_run_chunk, config, target)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, *zip(*pieces)))
    else:
        results = [run(*piece) for piece in pieces]

    failures = tuple(f for r in results for f in r.failures)
    if len(failures) == config.trials:
        raise AllTrialsFailedError(
            f"all {config.trials} trials failed; first reason: {failures[0].reason}"
        )

    # each statistic's table is reduced, and freed, before the next is joined
    (bp_mean, bp_std), (wng_mean, wng_std), (df_mean, df_std) = (
        _mean_std(np.concatenate([getattr(r, name) for r in results]))
        for name in ("bp_db", "wng_db", "df_db")
    )
    angles_deg = 360.0 * np.arange(config.angle_count) / config.angle_count
    return TrialStatistics(
        angles_deg=angles_deg,
        bp_mean_db=bp_mean,
        bp_std_db=bp_std,
        frequencies_hz=config.grid.frequencies_hz,
        wng_mean_db=wng_mean,
        wng_std_db=wng_std,
        df_mean_db=df_mean,
        df_std_db=df_std,
        eval_frequency_hz=config.eval_frequency_hz,
        trials=config.trials,
        failures=failures,
    )
