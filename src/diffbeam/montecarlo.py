"""Monte Carlo robustness studies over random array geometries.

Each trial draws a fresh geometry from a per-trial seed, designs the
filter, and evaluates the metrics; mean and standard deviation are
aggregated in the dB domain across trials. Trials are independent work
units: per-trial seeds are derived by splitting the master seed with the
trial index, and the reduction runs in trial-index order, so the
statistics are identical no matter how many workers execute them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllTrialsFailedError,
    InfeasibleGeometryError,
    RankDeficientSystemError,
)
from .geometry import PhysicalConstants, sample_random_geometry
from .metrics import beampattern, gain_curves, magnitude_db, power_db
from .patterns import SteeredTarget, a_to_b, resolve_pattern
from .solver import FrequencyGrid, design_filter

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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.element_count < 2 * self.order + 1:
            raise ValueError(
                f"order {self.order} needs at least {2 * self.order + 1} elements"
            )
        grid = self.grid.frequencies_hz
        if not np.any(np.isclose(grid, self.eval_frequency_hz, rtol=1e-9, atol=1e-9)):
            raise ValueError(
                f"evaluation frequency {self.eval_frequency_hz} Hz is not on the grid"
            )

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


def _run_one(config: TrialConfig, target: SteeredTarget, index: int):
    constants = PhysicalConstants(speed_of_sound=config.speed_of_sound)
    try:
        geometry = sample_random_geometry(
            config.element_count,
            config.aperture_radius,
            config.min_spacing,
            seed=trial_seed(config.master_seed, index),
        )
        filt = design_filter(
            geometry, constants, target, config.grid, config.element_model
        )
    except (RankDeficientSystemError, InfeasibleGeometryError) as err:
        return TrialFailure(index=index, reason=str(err))

    theta_grid = 2.0 * np.pi * np.arange(config.angle_count) / config.angle_count
    omega_eval = 2.0 * np.pi * config.eval_frequency_hz
    bp = beampattern(filt, geometry, constants, omega_eval, theta_grid)
    wng, df = gain_curves(filt, geometry, constants, filt.theta_s)
    return magnitude_db(bp, floor_db=config.db_floor), power_db(wng), power_db(df)


def run_trials(config: TrialConfig, workers: int = 1) -> TrialStatistics:
    """Run the experiment and aggregate mean/std in the dB domain.

    Failed trials (rank-deficient systems, infeasible geometries) never
    enter the statistics; they are counted and reported. The result is a
    pure function of ``config`` regardless of ``workers``.

    Raises
    ------
    AllTrialsFailedError
        When not a single trial produced a design.
    """
    target, _ = config.target()
    indices = range(config.trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: _run_one(config, target, t), indices))
    else:
        results = [_run_one(config, target, t) for t in indices]

    failures = tuple(r for r in results if isinstance(r, TrialFailure))
    successes = [r for r in results if not isinstance(r, TrialFailure)]
    if not successes:
        raise AllTrialsFailedError(
            f"all {config.trials} trials failed; first reason: {failures[0].reason}"
        )

    bp, wng, df = (np.stack(column) for column in zip(*successes))
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


@dataclass(frozen=True)
class OrderComparison:
    """Mean WNG/DF per order at a reference frequency, plus trend verdicts."""

    orders: tuple[int, ...]
    reference_frequency_hz: float
    wng_mean_db: tuple[float, ...]
    df_mean_db: tuple[float, ...]
    wng_strictly_decreasing: bool
    df_strictly_increasing: bool


def compare_orders(
    configs, reference_frequency_hz: float, workers: int = 1
) -> OrderComparison:
    """Run several orders on the same element count and compare trends.

    All configs must share element count, trial count, and master seed so
    the comparison isolates the beamformer order.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one configuration")
    heads = {(c.element_count, c.trials, c.master_seed) for c in configs}
    if len(heads) != 1:
        raise ValueError(
            "configurations must share element count, trials, and master seed"
        )
    wng_means = []
    df_means = []
    for config in configs:
        stats = run_trials(config, workers=workers)
        hits = np.flatnonzero(
            np.isclose(stats.frequencies_hz, reference_frequency_hz, rtol=1e-9, atol=1e-9)
        )
        if hits.size == 0:
            raise ValueError(
                f"reference frequency {reference_frequency_hz} Hz not on the grid"
            )
        wng_means.append(float(stats.wng_mean_db[hits[0]]))
        df_means.append(float(stats.df_mean_db[hits[0]]))
    orders = tuple(c.order for c in configs)
    wng_down = all(a > b for a, b in zip(wng_means, wng_means[1:]))
    df_up = all(a < b for a, b in zip(df_means, df_means[1:]))
    return OrderComparison(
        orders=orders,
        reference_frequency_hz=reference_frequency_hz,
        wng_mean_db=tuple(wng_means),
        df_mean_db=tuple(df_means),
        wng_strictly_decreasing=wng_down,
        df_strictly_increasing=df_up,
    )
