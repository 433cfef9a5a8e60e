"""Beampattern, white noise gain, and directivity factor.

The beampattern includes the per-element directivity: ``B(theta) =
h^H T(theta) d(omega, theta)`` with ``T`` the diagonal of first-order
responses. With all elements omnidirectional it collapses to the bare
``h^H d``. White noise gain and directivity factor are power ratios
against spatially white and 2-D diffuse noise; both are invariant to a
complex rescaling of the filter.

`gain_curves` computes both over a design grid from the pattern's
harmonic coefficients; the per-frequency quadrature versions
`white_noise_gain` and `directivity_factor` are its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFilterError
from .geometry import ArrayGeometry, PhysicalConstants
from .modal import element_harmonics
from .solver import BeamformerFilter

MIN_INTEGRATION_POINTS = 512
DEFAULT_INTEGRATION_POINTS = 4096
BEAMPATTERN_FLOOR_DB = -50.0


def magnitude_db(values, floor_db: float | None = None):
    """20*log10 of a magnitude, optionally clamped at a floor."""
    mags = np.abs(np.asarray(values))
    if floor_db is not None:
        mags = np.maximum(mags, 10.0 ** (floor_db / 20.0))
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mags)


def power_db(values):
    """10*log10 of a linear power ratio."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(values, dtype=float))


def check_integration_points(points) -> int:
    """``points`` as an int, refused below the quadrature minimum of 512."""
    points = int(points)
    if points < MIN_INTEGRATION_POINTS:
        raise ValueError(
            f"integration_points must be >= {MIN_INTEGRATION_POINTS}, got {points}"
        )
    return points


def beampattern(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    theta,
):
    """Spatial response at plane-wave angle(s) ``theta``.

    ``omega`` must be one of the filter's design-grid frequencies; metric
    evaluation never interpolates between filter solutions.

    Returns
    -------
    complex or ndarray
        ``h^H(omega) T(theta) d(omega, theta)``.
    """
    th = np.asarray(theta, dtype=float)
    pattern = render_pattern(
        filt.weights_at(omega), geometry.element_values, omega, th.ravel(),
        constants.speed_of_sound,
    )
    return complex(pattern[0]) if th.ndim == 0 else pattern


def render_pattern(weights, values, omega: float, theta, speed_of_sound: float) -> np.ndarray:
    """`beampattern` over a stack: weights (..., M) at ``omega`` and element
    values (4, ..., M) (rows r, phi, q, theta_steer), angles (A,) to (..., A)."""
    r, phi, q, steer = (v[..., None] for v in np.asarray(values))
    x = omega * r / speed_of_sound
    d = np.exp(1j * x * np.cos(theta - phi))
    pattern = np.asarray(weights).conj()[..., None] * ((1.0 - q) + q * np.cos(theta - steer))
    pattern *= d
    return pattern.sum(axis=-2)


def white_noise_gain(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    theta_s: float,
) -> float:
    """Gain against sensor self-noise, ``|B(theta_s)|^2 / h^H h`` (linear)."""
    h = filt.weights_at(omega)
    norm_sq = float(np.vdot(h, h).real)
    if norm_sq == 0.0:
        raise InvalidFilterError("filter has zero norm at this frequency")
    response = beampattern(filt, geometry, constants, omega, theta_s)
    return abs(response) ** 2 / norm_sq


def directivity_factor(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    theta_s: float,
    integration_points: int = DEFAULT_INTEGRATION_POINTS,
) -> float:
    """Gain against 2-D diffuse noise (linear).

    The angular mean of ``|B|^2`` is taken with the uniform rectangle
    rule over [-pi, pi), spectrally accurate for this periodic integrand.
    """
    integration_points = check_integration_points(integration_points)
    h = filt.weights_at(omega)
    if float(np.vdot(h, h).real) == 0.0:
        raise InvalidFilterError("filter has zero norm at this frequency")
    grid = -np.pi + 2.0 * np.pi * np.arange(integration_points) / integration_points
    responses = beampattern(filt, geometry, constants, omega, grid)
    mean_power = float(np.mean(np.abs(responses) ** 2))
    peak = abs(beampattern(filt, geometry, constants, omega, theta_s)) ** 2
    return peak / mean_power


def gain_curves(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    theta_s: float,
    integration_points: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """White noise gain and directivity factor (linear) over the grid.

    See `parseval_gains`. ``integration_points`` is ignored; it remains
    for callers written against the quadrature version.
    """
    return parseval_gains(
        filt.weights, geometry.element_values, filt.grid.omegas, filt.order, theta_s,
        constants.speed_of_sound,
    )


def harmonic_reach(order: int, x: float) -> int:
    """Highest harmonic |n| the Parseval sums keep for a largest normalized
    aperture ``x = omega r / c`` and a pattern of order ``order``."""
    # past n ~ x the Bessel terms fall like Ai((n - x) / (x/2)^(1/3)), below 1e-16
    # 12 units in; at small x the weights grow like 1 / J_N(x), hence the + N + 6
    return order + math.ceil(x + 12.0 * (x / 2.0) ** (1.0 / 3.0)) + 6


def parseval_gains(
    weights, values, omegas, order: int, theta_s: float, speed_of_sound: float
) -> tuple[np.ndarray, np.ndarray]:
    """WNG and DF (linear) of stacked filters: weights (..., F, M) over element
    values (4, ..., M) (rows r, phi, q, theta_steer) to (..., F) each.

    The rendered pattern is ``B(theta) = sum_n c_n e^{jn theta}`` with
    ``c_n = h^H Xi_n`` from `element_harmonics`, so by Parseval the
    diffuse-noise mean of ``|B|^2`` is ``sum_n |c_n|^2``: both gains are
    exact, with no angular quadrature.
    """
    norm_sq = np.sum(np.abs(weights) ** 2, axis=-1)
    if np.any(norm_sq == 0.0):
        raise InvalidFilterError("filter has zero norm at this frequency")
    x = float(np.max(omegas) * np.max(values[0])) / speed_of_sound
    reach = harmonic_reach(order, x)
    n_values = np.arange(-reach, reach + 1)
    xi = element_harmonics(values, omegas, n_values, speed_of_sound)
    coefficients = (xi @ weights.conj()[..., None])[..., 0]
    peak = np.abs(coefficients @ np.exp(1j * n_values * theta_s)) ** 2
    return peak / norm_sq, peak / np.sum(np.abs(coefficients) ** 2, axis=-1)


@dataclass(frozen=True)
class MetricsResult:
    """Beampattern samples per frequency plus WNG/DF curves in dB."""

    theta_grid: np.ndarray  # (K,) radians, uniform over [0, 2pi)
    beampattern: np.ndarray  # (F, K) complex
    wng_db: np.ndarray  # (F,)
    df_db: np.ndarray  # (F,)


def compute_metrics(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    angle_count: int = 360,
) -> MetricsResult:
    """Evaluate all three metrics over the filter's whole design grid."""
    if angle_count < 1:
        raise ValueError("angle_count must be >= 1")
    theta_grid = 2.0 * np.pi * np.arange(angle_count) / angle_count
    omegas = filt.grid.omegas
    bp = np.array([beampattern(filt, geometry, constants, w, theta_grid) for w in omegas])
    wng, df = gain_curves(filt, geometry, constants, filt.theta_s)
    return MetricsResult(
        theta_grid=theta_grid,
        beampattern=bp,
        wng_db=power_db(wng),
        df_db=power_db(df),
    )
