"""Beampattern, white noise gain, and directivity factor.

The beampattern includes the per-element directivity: ``B(theta) =
h^H T(theta) d(omega, theta)`` with ``T`` the diagonal of first-order
responses. With all elements omnidirectional it collapses to the bare
``h^H d``. White noise gain and directivity factor are power ratios
against spatially white and 2-D diffuse noise; both are invariant to a
complex rescaling of the filter.

Every designed filter is scored from its pattern's harmonic coefficients
``c_n = h^H Xi_n``: `design_coefficients` designs a stack of arrays and
builds their c_n, `filter_coefficients` builds them for a designed
filter, `coefficient_gains` takes both gains from them by Parseval and
`equispaced_pattern` samples the pattern from them by an inverse FFT.
`beampattern` is the direct element sum, for arbitrary angles and as the
independent check of that path; the per-frequency quadrature gains
`white_noise_gain` and `directivity_factor` live in `diffbeam.oracles`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidFilterError
from .geometry import ArrayGeometry, PhysicalConstants
from .modal import element_harmonics, model_values
from .patterns import SteeredTarget
from .solver import BeamformerFilter, design_rhs, solve_wide

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
    """White noise gain and directivity factor (linear) over the grid, scored
    by `coefficient_gains` from `filter_coefficients`.

    ``integration_points`` is ignored: the gains are exact. The keyword stays
    only because the benchmark's ``_df_exp_count`` hook (``perfbench/spans.py``)
    binds it by name; it goes once that hook is dropped.
    """
    coefficients, n_values = filter_coefficients(filt, geometry, constants)
    return coefficient_gains(coefficients, filt.weights, n_values, theta_s)


def parseval_harmonics(
    order: int, omega_max: float, radius: float, speed_of_sound: float
) -> np.ndarray:
    """Harmonics ``n = -L .. L`` that hold a pattern of order ``order`` from
    elements within ``radius`` of the origin, up to ``omega_max`` (rad/s).

    ``L = N + ceil(x + 12 (x/2)^(1/3)) + 6`` for the largest normalized
    aperture ``x = omega_max radius / c``: past n ~ x the Bessel terms fall
    like ``Ai((n - x) / (x/2)^(1/3))``, below 1e-16 twelve units in, and at
    small x the weights grow like ``1 / J_N(x)``, hence the ``+ N + 6``.
    """
    x = float(omega_max * radius) / speed_of_sound
    reach = order + math.ceil(x + 12.0 * (x / 2.0) ** (1.0 / 3.0)) + 6
    return np.arange(-reach, reach + 1)


def pattern_coefficients(xi, weights) -> np.ndarray:
    """``c_n = h^H Xi_n``: harmonic tensors (..., F, K, M) and weights
    (..., F, M) to the pattern's coefficients (..., F, K)."""
    return (xi @ weights.conj()[..., None])[..., 0]


def filter_coefficients(
    filt: BeamformerFilter, geometry: ArrayGeometry, constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """The pattern coefficients (F, K) of a designed filter over its grid,
    with the harmonics (K,) they stand for (`parseval_harmonics`)."""
    omegas = filt.grid.omegas
    values = geometry.element_values
    c = constants.speed_of_sound
    n_values = parseval_harmonics(filt.order, np.max(omegas), np.max(values[0]), c)
    xi = element_harmonics(values, omegas, n_values, c)
    return pattern_coefficients(xi, filt.weights), n_values


def design_coefficients(
    values,
    omegas,
    target: SteeredTarget,
    element_model: str,
    n_values,
    speed_of_sound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Design a stack of arrays and build the coefficients of their patterns.

    ``values`` (4, ..., M) holds each element's r, phi, q and theta_steer,
    ``omegas`` (F,) the grid and ``n_values`` the harmonics ``-L .. L``,
    ``L >= N``, the patterns are scored over (`parseval_harmonics`). One
    `element_harmonics` tensor over ``n_values`` gives the coefficients; its
    rows ``|n| <= N`` are the first-order design rows, while the omni model
    designs from its own ``q = 0`` rows and is scored with the true q.

    Returns ``(weights, refused, condition, coefficients)``: the first three
    as `solve_wide` gives them, (..., F, M) and (..., F), and the coefficients
    ``c_n = h^H Xi_n`` (..., F, K), NaN where the system was refused.
    """
    rows, elements = 2 * target.order + 1, np.shape(values)[-1]
    if elements < rows:
        raise ValueError(f"order {target.order} needs at least {rows} elements, got {elements}")
    reach = int(n_values[-1])
    design_rows = slice(reach - target.order, reach + target.order + 1)
    xi = element_harmonics(values, omegas, n_values, speed_of_sound)
    if element_model == "first_order":
        design_xi = xi[..., design_rows, :]
    else:
        design_xi = element_harmonics(
            model_values(values, element_model), omegas, n_values[design_rows], speed_of_sound
        )
    weights, refused, condition = solve_wide(design_xi.conj(), design_rhs(target))
    return weights, refused, condition, pattern_coefficients(xi, weights)


def coefficient_gains(
    coefficients, weights, n_values, theta_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """WNG and DF (linear) from pattern coefficients (..., F, K) over
    harmonics ``n_values`` (K,) and the weights (..., F, M) behind them.

    The rendered pattern is ``B(theta) = sum_n c_n e^{jn theta}``, so by
    Parseval the diffuse-noise mean of ``|B|^2`` is ``sum_n |c_n|^2``: both
    gains are exact, with no angular quadrature, once the coefficients reach
    past every harmonic the pattern holds (`parseval_harmonics`).
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
