"""Beampattern, white noise gain, and directivity factor.

The beampattern includes the per-element directivity: ``B(theta) =
h^H T(theta) d(omega, theta)`` with ``T`` the diagonal of first-order
responses. With all elements omnidirectional it collapses to the bare
``h^H d``. White noise gain and directivity factor are power ratios
against spatially white and 2-D diffuse noise; both are invariant to a
complex rescaling of the filter.

Every designed filter is scored from its pattern's harmonic coefficients
``c_n = h^H Xi_n``: `pattern_coefficients` builds them for a stack of
arrays and the weights `solver.design_weights` gave them,
`filter_coefficients` for a designed filter, `coefficient_gains` takes
both gains from them by Parseval and `equispaced_pattern` samples the
pattern from them by an inverse FFT. `beampattern` is the direct element
sum, for arbitrary angles and as the independent check of that path; the
per-frequency quadrature gains `white_noise_gain` and
`directivity_factor`, and `gain_curves`, live in `diffbeam.oracles`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryMismatchError, InvalidFilterError
from .geometry import ArrayGeometry, PhysicalConstants
from .modal import element_harmonics
from .solver import BeamformerFilter

BEAMPATTERN_FLOOR_DB = -50.0


def magnitude_db(values, floor_db: float | None = None):
    """20*log10 of a magnitude, optionally clamped at a floor; a scalar for
    a scalar, else an array of floats."""
    mags = np.asarray(np.abs(values), dtype=float)
    if floor_db is not None:
        np.maximum(mags, 10.0 ** (floor_db / 20.0), out=mags)
    with np.errstate(divide="ignore"):
        np.log10(mags, out=mags)
    mags *= 20.0
    return mags[()]


def check_floor_db(floor_db: float, name: str) -> float:
    """``floor_db`` if `magnitude_db` can clamp at it: finite, with an
    amplitude ``10 ** (floor_db / 20)`` a double holds, so at most 20 log10
    of the largest double, about 6165.09 dB; refused naming ``name``."""
    try:
        if math.isfinite(floor_db) and math.isfinite(10.0 ** (floor_db / 20.0)):
            return floor_db
    except OverflowError:
        pass
    raise ValueError(
        f"{name} must be finite and at most about 6165.09 dB, where its amplitude "
        f"overflows a double; got {floor_db!r} dB"
    )


def power_db(values):
    """10*log10 of a linear power ratio."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(values, dtype=float))


def _check_element_count(filt: BeamformerFilter, geometry: ArrayGeometry) -> None:
    """Refuse a filter whose weights are for another number of elements."""
    if filt.size != geometry.size:
        raise GeometryMismatchError(
            f"the filter has weights for {filt.size} elements but the geometry "
            f"has {geometry.size}"
        )


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
    _check_element_count(filt, geometry)
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


def parseval_reach(order: int, omega_max: float, radius: float, speed_of_sound: float) -> int:
    """The reach L of the harmonics ``n = -L .. L`` that hold a pattern of order
    ``order`` from elements within ``radius`` of the origin, up to ``omega_max`` (rad/s).

    ``L = N + ceil(x + 12 (x/2)^(1/3)) + 6`` for the largest normalized
    aperture ``x = omega_max radius / c``: past n ~ x the Bessel terms fall
    like ``Ai((n - x) / (x/2)^(1/3))``, below 1e-16 twelve units in, and at
    small x the weights grow like ``1 / J_N(x)``, hence the ``+ N + 6``.
    """
    x = float(omega_max * radius) / speed_of_sound
    return order + math.ceil(x + 12.0 * (x / 2.0) ** (1.0 / 3.0)) + 6


def pattern_coefficients(xi, weights) -> np.ndarray:
    """``c_n = h^H Xi_n``, the scoring half: harmonic tensors (..., F, K, M)
    and weights (..., F, M) to the pattern's coefficients (..., F, K). The
    tensors are the arrays' own, each element with its own q, whichever
    element model designed the weights."""
    return (xi @ weights.conj()[..., None])[..., 0]


def filter_coefficients(
    filt: BeamformerFilter, geometry: ArrayGeometry, constants: PhysicalConstants
) -> np.ndarray:
    """The pattern coefficients (F, 2L + 1) of a designed filter over its
    grid, L its `parseval_reach`.

    Raises `GeometryMismatchError` when the filter's element count is not
    the geometry's.
    """
    _check_element_count(filt, geometry)
    omegas = filt.grid.omegas
    values = geometry.element_values
    c = constants.speed_of_sound
    reach = parseval_reach(filt.order, np.max(omegas), np.max(values[0]), c)
    return pattern_coefficients(element_harmonics(values, omegas, reach, c), filt.weights)


def coefficient_gains(coefficients, weights, theta_s: float) -> tuple[np.ndarray, np.ndarray]:
    """WNG and DF (linear) from pattern coefficients (..., F, K) and the
    weights (..., F, M) behind them.

    The rendered pattern is ``B(theta) = sum_n c_n e^{jn theta}``, so by
    Parseval the diffuse-noise mean of ``|B|^2`` is ``sum_n |c_n|^2``: both
    gains are exact, with no angular quadrature, once the coefficients reach
    past every harmonic the pattern holds (`parseval_reach`).
    """
    norm_sq = np.sum(np.abs(weights) ** 2, axis=-1)
    if np.any(norm_sq == 0.0):
        raise InvalidFilterError("filter has zero norm at this frequency")
    reach = coefficients.shape[-1] // 2
    n = np.arange(-reach, reach + 1)
    peak = np.abs(coefficients @ np.exp(1j * n * theta_s)) ** 2
    return peak / norm_sq, peak / np.sum(np.abs(coefficients) ** 2, axis=-1)


# the most angles a pattern can have: its complex values must be an array
# whose size in bytes NumPy can index
_MAX_ANGLES = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def angle_count(step_deg: float) -> int:
    """The number of angles ``step_deg`` apart that close the circle, for
    `equispaced_pattern`; refused unless the step is positive, finite,
    divides 360 degrees to 1e-9 and gives no more than ``_MAX_ANGLES``."""
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise ValueError(f"angle step must be positive and finite, got {step_deg!r} deg")
    angles = 360.0 / step_deg
    if angles > _MAX_ANGLES:
        raise ValueError(
            f"angle step {step_deg!r} deg gives {angles:.3g} angles, more than "
            f"the {_MAX_ANGLES:.3g} an array of complex values can hold"
        )
    count = int(round(angles))
    if count < 1 or abs(count * step_deg - 360.0) > 1e-9:
        raise ValueError(f"angle step {step_deg} deg must divide 360 evenly")
    return count


def equispaced_pattern(coefficients, angle_count: int) -> np.ndarray:
    """``B(theta_a)`` at ``theta_a = 2 pi a / A``, a = 0 .. A-1, from pattern
    coefficients (..., K), to (..., A).

    At those angles ``e^{jn theta_a}`` depends on n mod A only, so the
    coefficients fold onto A residues and ``B = A ifft(folded)``; this is
    exact for any A, also below the harmonic count K.
    """
    lead, k = coefficients.shape[:-1], coefficients.shape[-1]
    # coefficient p, harmonic p - K // 2, goes to turn p // A at its residue
    # slot (p - K // 2) mod A, so the sum over whole turns is the fold; every
    # slot sums its harmonics in turn order
    p = np.arange(k)
    slots = p // angle_count * angle_count + (p - k // 2) % angle_count
    turns = -(-k // angle_count)
    placed = np.zeros(lead + (turns, angle_count), dtype=complex)
    # an explicit width, so a stack of no rows reshapes too
    placed.reshape(lead + (turns * angle_count,))[..., slots] = coefficients
    folded = placed.sum(axis=-2)
    del placed
    # numpy.fft takes out= from NumPy 2.0, the floor pyproject.toml declares
    np.fft.ifft(folded, axis=-1, out=folded)
    folded *= angle_count
    return folded
