"""Monte Carlo robustness studies over random array geometries.

Each trial draws a fresh geometry from a per-trial seed, designs the
filter, and evaluates the metrics; mean and standard deviation are
aggregated in the dB domain across trials. Trials run in chunks whose
boundaries depend on the configuration alone; a chunk's geometries,
designs and metrics are each computed as one stack. Per-trial seeds are
derived by splitting the master seed with the trial index, and the
reduction runs in trial-index order, so the statistics are identical no
matter how many workers execute the chunks.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import AllTrialsFailedError, InfeasibleGeometryError
from .geometry import sample_element_values
from .metrics import harmonic_reach, magnitude_db, parseval_gains, power_db, render_pattern
from .modal import element_harmonics, model_values
from .patterns import SteeredTarget, a_to_b, resolve_pattern
from .solver import FrequencyGrid, _solve_wide, design_rhs, rank_deficiency

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


# trials per chunk hold each of a chunk's largest arrays (the harmonic tensor
# of the Parseval sums, the rendered pattern) to about this many complex
# values, 1 MiB: past a few MB per chunk the peak memory grows and speed does not
CHUNK_ELEMENTS = 1 << 16


def chunk_trials(config: TrialConfig) -> int:
    """Trials per chunk, from the sizes of the study alone.

    A trial's largest arrays hold grid points x harmonics x elements values
    (the Parseval harmonics reach past the largest normalized aperture, the
    aperture radius at the top of the grid) and elements x angles values
    (the rendered pattern).
    """
    x = float(np.max(config.grid.omegas) * config.aperture_radius) / config.speed_of_sound
    harmonics = 2 * harmonic_reach(config.order, x) + 1
    per_trial = config.element_count * max(config.grid.count * harmonics, config.angle_count)
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

    values = np.stack(sampled, axis=1)  # (4, T, M)
    c = config.speed_of_sound
    grid = config.grid
    n_values = np.arange(-config.order, config.order + 1)
    xi = element_harmonics(
        model_values(values, config.element_model), grid.omegas, n_values, c
    )
    weights, refused, condition = _solve_wide(xi.conj(), design_rhs(target))
    for t in np.flatnonzero(refused.any(axis=1)):
        f = int(np.argmax(refused[t]))
        error = rank_deficiency(float(condition[t, f]), float(grid.frequencies_hz[f]))
        failures.append(TrialFailure(index=kept[t], reason=str(error)))
    failures.sort(key=lambda failure: failure.index)
    designed = ~refused.any(axis=1)
    if not designed.any():
        return empty
    weights, values = weights[designed], values[:, designed]

    theta_grid = 2.0 * np.pi * np.arange(config.angle_count) / config.angle_count
    eval_index = int(np.flatnonzero(
        np.isclose(grid.frequencies_hz, config.eval_frequency_hz, rtol=1e-9, atol=1e-9)
    )[0])
    omega_eval = 2.0 * np.pi * config.eval_frequency_hz
    bp = render_pattern(weights[:, eval_index], values, omega_eval, theta_grid, c)
    wng, df = parseval_gains(weights, values, grid.omegas, config.order, target.theta_s, c)
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
