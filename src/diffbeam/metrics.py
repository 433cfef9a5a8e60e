"""Beampattern, white noise gain, and directivity factor.

The beampattern includes the per-element directivity: ``B(theta) =
h^H T(theta) d(omega, theta)`` with ``T`` the diagonal of first-order
responses. With all elements omnidirectional it collapses to the bare
``h^H d``. White noise gain and directivity factor are power ratios
against spatially white and 2-D diffuse noise; both are invariant to a
complex rescaling of the filter.

`gain_curves` computes both over a design grid from the pattern's
harmonic coefficients; its oracles, the per-frequency quadrature versions
`white_noise_gain` and `directivity_factor`, live in `diffbeam.oracles`.
`equispaced_pattern` samples the pattern from the same coefficients by
an inverse FFT; `beampattern` is the direct element sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidFilterError
from .geometry import ArrayGeometry, PhysicalConstants
from .modal import element_harmonics
from .solver import BeamformerFilter

MIN_INTEGRATION_POINTS = 512
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


def gain_curves(
    filt: BeamformerFilter,
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    theta_s: float,
    integration_points: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """White noise gain and directivity factor (linear) over the grid.

    Builds the coefficients ``c_n = h^H Xi_n`` from `element_harmonics` for
    every ``|n|`` up to `harmonic_reach` and scores them with
    `coefficient_gains`. ``integration_points`` is ignored; it remains for
    callers written against the quadrature version.
    """
    omegas = filt.grid.omegas
    values = geometry.element_values
    c = constants.speed_of_sound
    reach = harmonic_reach(filt.order, float(np.max(omegas) * np.max(values[0])) / c)
    n_values = np.arange(-reach, reach + 1)
    xi = element_harmonics(values, omegas, n_values, c)
    return coefficient_gains(
        pattern_coefficients(xi, filt.weights), filt.weights, n_values, theta_s
    )


def harmonic_reach(order: int, x: float) -> int:
    """Highest harmonic |n| the Parseval sums keep for a largest normalized
    aperture ``x = omega r / c`` and a pattern of order ``order``."""
    # past n ~ x the Bessel terms fall like Ai((n - x) / (x/2)^(1/3)), below 1e-16
    # 12 units in; at small x the weights grow like 1 / J_N(x), hence the + N + 6
    return order + math.ceil(x + 12.0 * (x / 2.0) ** (1.0 / 3.0)) + 6


def pattern_coefficients(xi, weights) -> np.ndarray:
    """``c_n = h^H Xi_n``: harmonic tensors (..., F, K, M) and weights
    (..., F, M) to the pattern's coefficients (..., F, K)."""
    return (xi @ weights.conj()[..., None])[..., 0]


def coefficient_gains(
    coefficients, weights, n_values, theta_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """WNG and DF (linear) from pattern coefficients (..., F, K) over
    harmonics ``n_values`` (K,) and the weights (..., F, M) behind them.

    The rendered pattern is ``B(theta) = sum_n c_n e^{jn theta}``, so by
    Parseval the diffuse-noise mean of ``|B|^2`` is ``sum_n |c_n|^2``: both
    gains are exact, with no angular quadrature, once the coefficients reach
    past every harmonic the pattern holds (`harmonic_reach`).
    """
    norm_sq = np.sum(np.abs(weights) ** 2, axis=-1)
    if np.any(norm_sq == 0.0):
        raise InvalidFilterError("filter has zero norm at this frequency")
    peak = np.abs(coefficients @ np.exp(1j * n_values * theta_s)) ** 2
    return peak / norm_sq, peak / np.sum(np.abs(coefficients) ** 2, axis=-1)


def equispaced_pattern(coefficients, n_values, angle_count: int) -> np.ndarray:
    """``B(theta_a)`` at ``theta_a = 2 pi a / A``, a = 0 .. A-1, from pattern
    coefficients (..., K) over the consecutive harmonics ``n_values`` (K,),
    to (..., A).

    At those angles ``e^{jn theta_a}`` depends on n mod A only, so the
    coefficients fold onto A residues and ``B = A ifft(folded)``; this is
    exact for any A, also below the harmonic count K.
    """
    n_first = int(n_values[0])
    k = coefficients.shape[-1]
    # pad to whole turns of A; position p holds harmonic n_first + p, so the
    # sum over turns is the fold up to a shift of n_first residues
    turns = -(-k // angle_count)
    padded = np.zeros(coefficients.shape[:-1] + (turns * angle_count,), dtype=complex)
    padded[..., :k] = coefficients
    folded = padded.reshape(coefficients.shape[:-1] + (turns, angle_count)).sum(axis=-2)
    folded = np.roll(folded, n_first % angle_count, axis=-1)
    return angle_count * np.fft.ifft(folded, axis=-1)
