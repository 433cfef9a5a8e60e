"""Monte Carlo robustness studies over random array geometries.

Each trial draws a fresh geometry from a per-trial seed, designs the
filter, and evaluates the metrics; mean and standard deviation are
aggregated in the dB domain across trials. Trials run in chunks; a
chunk's geometries, designs and metrics are each computed as one stack,
over harmonics fixed by the configuration, so no result depends on where
the chunk boundaries fall. Per-trial seeds are derived by splitting the
master seed with the trial index, and the reduction runs in trial-index
order, so the statistics are identical no matter how many workers execute
the chunks.
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

from .errors import AllTrialsFailedError, InfeasibleGeometryError
from .geometry import PhysicalConstants, sample_element_values
from .metrics import (
    coefficient_gains,
    design_coefficients,
    equispaced_pattern,
    magnitude_db,
    parseval_harmonics,
    power_db,
)
from .patterns import SteeredTarget, a_to_b, resolve_pattern
from .solver import FrequencyGrid, rank_deficiency

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
    """Splittable per-trial seed: independent of scheduling, stable forever."""
    sequence = np.random.SeedSequence([int(master_seed), int(index)])
    return int(sequence.generate_state(1, np.uint64)[0])


# trials per chunk hold a chunk's harmonic tensor to about this many complex
# values, 1 MiB: past a few MB per chunk the peak memory grows and speed does not
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
    values and a pattern of one value per angle.
    """
    harmonics = _parseval_harmonics(config).size
    per_trial = config.element_count * config.grid.count * harmonics + config.angle_count
    return max(1, CHUNK_ELEMENTS // per_trial)


@dataclass(frozen=True)
class _ChunkResult:
    bp_db: np.ndarray  # (S, K) at eval_frequency_hz, over the chunk's S successes
    wng_db: np.ndarray  # (S, F)
    df_db: np.ndarray  # (S, F)
    failures: list[TrialFailure]


def _run_chunk(config: TrialConfig, target: SteeredTarget, indices: range) -> _ChunkResult:
    """Sample, design and score a run of trials as one stack.

    A trial fails when its geometry cannot be sampled or the rank gate
    refuses any of its grid frequencies; its reason is the error that
    `sample_random_geometry` or `design_filter` raises for it.
    """
    failures = []
    kept = []
    sampled = []
    for index in indices:
        try:
            sampled.append(sample_element_values(
                config.element_count,
                config.aperture_radius,
                config.min_spacing,
                seed=trial_seed(config.master_seed, index),
            ))
        except InfeasibleGeometryError as err:
            failures.append(TrialFailure(index=index, reason=str(err)))
        else:
            kept.append(index)
    empty = _ChunkResult(
        np.empty((0, config.angle_count)), np.empty((0, config.grid.count)),
        np.empty((0, config.grid.count)), failures,
    )
    if not sampled:
        return empty

    grid = config.grid
    n_values = _parseval_harmonics(config)
    weights, refused, condition, coefficients = design_coefficients(
        np.stack(sampled, axis=1), grid.omegas, target, config.element_model, n_values,
        config.speed_of_sound,
    )
    for t in np.flatnonzero(refused.any(axis=1)):
        f = int(np.argmax(refused[t]))
        error = rank_deficiency(float(condition[t, f]), float(grid.frequencies_hz[f]))
        failures.append(TrialFailure(index=kept[t], reason=str(error)))
    failures.sort(key=lambda failure: failure.index)
    designed = ~refused.any(axis=1)
    if not designed.any():
        return empty
    coefficients = coefficients[designed]  # (S, F, K)

    eval_index = grid.index(config.eval_frequency_hz)
    bp = equispaced_pattern(coefficients[:, eval_index], n_values, config.angle_count)
    wng, df = coefficient_gains(coefficients, weights[designed], n_values, target.theta_s)
    return _ChunkResult(
        magnitude_db(bp, floor_db=config.db_floor), power_db(wng), power_db(df), failures
    )


def run_trials(config: TrialConfig, workers: int = 1) -> TrialStatistics:
    """Run the experiment and aggregate mean/std in the dB domain.

    Trials run in chunks of `chunk_trials`, one stack per layer each, and
    ``workers`` threads share out the chunks. Failed trials (rank-deficient
    systems, infeasible geometries) never enter the statistics; they are
    counted and reported. The chunks depend on ``config`` alone and are
    reduced in trial-index order, so the result is a pure function of
    ``config`` regardless of ``workers``.

    Raises
    ------
    AllTrialsFailedError
        When not a single trial produced a design.
    """
    target, _ = config.target()
    size = chunk_trials(config)
    chunks = [range(s, min(s + size, config.trials)) for s in range(0, config.trials, size)]
    run = functools.partial(_run_chunk, config, target)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(chunk) for chunk in chunks]

    failures = tuple(f for r in results for f in r.failures)
    if len(failures) == config.trials:
        raise AllTrialsFailedError(
            f"all {config.trials} trials failed; first reason: {failures[0].reason}"
        )

    bp, wng, df = (
        np.concatenate([getattr(r, name) for r in results])
        for name in ("bp_db", "wng_db", "df_db")
    )
    angles_deg = 360.0 * np.arange(config.angle_count) / config.angle_count
    return TrialStatistics(
        angles_deg=angles_deg,
        bp_mean_db=bp.mean(axis=0),
        bp_std_db=bp.std(axis=0),
        frequencies_hz=config.grid.frequencies_hz,
        wng_mean_db=wng.mean(axis=0),
        wng_std_db=wng.std(axis=0),
        df_mean_db=df.mean(axis=0),
        df_std_db=df.std(axis=0),
        eval_frequency_hz=config.eval_frequency_hz,
        trials=config.trials,
        failures=failures,
    )
