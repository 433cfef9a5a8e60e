"""Scalar reference implementations and test-only builders.

Each oracle here computes, one value or one frequency at a time and by
an independent route, a quantity the package computes vectorized:

- `bessel_j` and `bessel_j_prime` check `bessel.bessel_order_table`, and
  `hansen_bessel_quadrature` checks them through the integral form;
- `harmonic_coefficient` is the closed form behind
  `modal.element_harmonics`, and `harmonic_coefficient_quadrature` its
  defining Fourier integral; `build_psi_matrix` is the omnidirectional
  (``q = 0``) matching matrix from the scalar kernel;
- `white_noise_gain` and `directivity_factor` are the per-frequency
  quadrature versions of `metrics.coefficient_gains`;
- `steering_vector` is the bare plane-wave response of the positions.

The builders at the end (`harmonic_tensor`, `build_xi_matrix`,
`build_modal_system`, `gain_curves`, `b_to_a`) only wrap the package's own
kernels for one geometry, for the tests and the acceptance criteria.

No module of the package's hot path imports this one; `diffbeam` re-exports
the names its acceptance criteria reach.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import TABLE_ARGUMENT_CAP
from .errors import InvalidFilterError
from .geometry import ArrayGeometry, PhysicalConstants
from .metrics import beampattern, coefficient_gains, filter_coefficients
from .modal import element_harmonics, model_values
from .patterns import PatternCoefficients, SteeredTarget, SymmetricB, apply_steering
from .solver import BeamformerFilter

ORDER_CAP = 64
MIN_QUADRATURE_POINTS = 256
MIN_COEFFICIENT_QUADRATURE_POINTS = 1024
DEFAULT_INTEGRATION_POINTS = 4096
MIN_INTEGRATION_POINTS = 512

# regime switch: the ascending series starts shedding digits to
# alternating-term cancellation as x grows (~1e-13 by x = 12, enough to
# spoil finite-difference checks), while the normalized recurrence stays
# at machine precision all the way down; hand over early
_SERIES_LIMIT = 4.0
_RESCALE = 1e100

# powers of the imaginary unit cycle with period four; indexing this table
# keeps the phase factors exact instead of round-tripping through exp()
_J_POWER = (1 + 0j, 1j, -1 + 0j, -1j)


def _check_argument(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    return x


def _check_kernel_argument(x: float) -> float:
    # the scalar kernel is tested against mpmath up to the table's cap
    x = _check_argument(x)
    if x > TABLE_ARGUMENT_CAP:
        raise ValueError(f"argument must lie in [0, {TABLE_ARGUMENT_CAP}], got {x!r}")
    return x


def _check_order(n: int) -> int:
    n = int(n)
    if abs(n) > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the supported cap |n| <= {ORDER_CAP}")
    return n


def _series(n: int, x: float) -> float:
    # ascending series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!); n >= 0, small x
    half = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= half / k
    if term == 0.0:
        return 0.0
    total = term
    half_sq = half * half
    for k in range(1, 400):
        term *= -half_sq / (k * (n + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return total


def _miller(n_max: int, x: float) -> np.ndarray:
    # downward recurrence normalized with J_0 + 2*sum J_{2k} = 1; x > 0
    top = max(n_max, int(math.ceil(x)))
    start = top + 12 + int(math.sqrt(40.0 * (top + 1)))
    if start % 2:
        start += 1
    values = np.zeros(start + 1)
    j_above, j_here = 0.0, 1e-30
    values[start] = j_here
    for k in range(start, 0, -1):
        j_below = (2.0 * k / x) * j_here - j_above
        j_above, j_here = j_here, j_below
        values[k - 1] = j_here
        if abs(j_here) > _RESCALE:
            j_above /= _RESCALE
            j_here /= _RESCALE
            values /= _RESCALE
    norm = values[0] + 2.0 * values[2::2].sum()
    return values[: n_max + 1] / norm


def _jn(n: int, x: float) -> float:
    # nonnegative order, validated argument
    if x < _SERIES_LIMIT:
        return _series(n, x)
    return float(_miller(n, x)[n])


def _jn_signed(n: int, x: float) -> float:
    if n >= 0:
        return _jn(n, x)
    value = _jn(-n, x)
    return -value if n % 2 else value


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x).

    Two evaluation regimes: the ascending power series for small
    arguments and a normalized downward (Miller) recurrence beyond, where
    the series starts losing digits to cancellation. Negative orders go
    through the symmetry ``J_{-n}(x) = (-1)^n J_n(x)`` so it holds exactly
    as implemented.

    Parameters
    ----------
    n : int
        Integer order, |n| <= 64.
    x : float
        Argument in [0, 100]; larger ones are refused.

    Returns
    -------
    float
        J_n(x), with absolute error below 1e-12.
    """
    n = _check_order(n)
    x = _check_kernel_argument(x)
    return _jn_signed(n, x)


def bessel_j_prime(n: int, x: float) -> float:
    """Derivative J'_n(x) = (J_{n-1}(x) - J_{n+1}(x)) / 2, for x in [0, 100]."""
    n = _check_order(n)
    x = _check_kernel_argument(x)
    return 0.5 * (_jn_signed(n - 1, x) - _jn_signed(n + 1, x))


def hansen_bessel_quadrature(n: int, x: float, points: int) -> float:
    """Integral-form oracle for J_n(x).

    Evaluates (1/2pi) * integral over [-pi, pi) of exp(j*(n*t - x*sin t))
    with the uniform rectangle rule, which converges spectrally for this
    periodic integrand. Serves as the independent check of `bessel_j`.

    Parameters
    ----------
    n : int
        Integer order, |n| <= 64.
    x : float
        Nonnegative finite argument.
    points : int
        Number of quadrature nodes, at least 256.
    """
    n = _check_order(n)
    x = _check_argument(x)
    points = int(points)
    if points < MIN_QUADRATURE_POINTS:
        raise ValueError(f"points must be >= {MIN_QUADRATURE_POINTS}, got {points}")
    theta = -np.pi + 2.0 * np.pi * np.arange(points) / points
    value = np.exp(1j * (n * theta - x * np.sin(theta))).mean()
    if abs(value.imag) >= 1e-10:
        raise RuntimeError(
            f"quadrature produced a non-negligible imaginary part {value.imag!r}"
        )
    return float(value.real)


def unit_imaginary_power(n: int) -> complex:
    """j**n through the exact four-cycle {1, j, -1, -j}."""
    return _J_POWER[n % 4]


def harmonic_coefficient(
    n: int, x: float, q: float, theta_steer: float, phi: float
) -> complex:
    """Closed-form harmonic coefficient of a first-order element response.

    Parameters
    ----------
    n : int
        Harmonic order.
    x : float
        Normalized aperture omega * r / c, in [0, 100].
    q : float
        First-order shape coefficient in [0, 1].
    theta_steer, phi : float
        Element steering and position angles in radians.

    Returns
    -------
    complex
        ``(1-q) j^n J_n(x) e^{jn d} + q j^{n+1} (J_{n+1}(x) e^{j(n+1)d}
        - J_{n-1}(x) e^{j(n-1)d}) / 2`` with ``d = theta_steer - phi``.
    """
    x = _check_kernel_argument(x)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"shape coefficient must lie in [0, 1], got {q!r}")
    if not (math.isfinite(theta_steer) and math.isfinite(phi)):
        raise ValueError("angles must be finite")
    n = int(n)
    delta = theta_steer - phi
    omni = unit_imaginary_power(n) * _jn_signed(n, x) * cmath.exp(1j * n * delta)
    dipole = unit_imaginary_power(n + 1) * 0.5 * (
        _jn_signed(n + 1, x) * cmath.exp(1j * (n + 1) * delta)
        - _jn_signed(n - 1, x) * cmath.exp(1j * (n - 1) * delta)
    )
    return (1.0 - q) * omni + q * dipole


def harmonic_coefficient_quadrature(
    n: int,
    x: float,
    q: float,
    theta_steer: float,
    phi: float,
    points: int = 4096,
) -> complex:
    """Defining Fourier integral of the harmonic coefficient.

    Uniform-rule evaluation of
    ``(1/2pi) int T(theta) e^{jx cos(theta - phi)} e^{-jn(theta - theta_steer)} dtheta``
    with ``T(theta) = (1-q) + q cos(theta - theta_steer)``. Independent of
    the closed form in `harmonic_coefficient`, deliberately: it validates
    that whole derivation.
    """
    points = int(points)
    if points < MIN_COEFFICIENT_QUADRATURE_POINTS:
        raise ValueError(
            f"points must be >= {MIN_COEFFICIENT_QUADRATURE_POINTS}, got {points}"
        )
    x = _check_argument(x)
    theta = -np.pi + 2.0 * np.pi * np.arange(points) / points
    response = (1.0 - q) + q * np.cos(theta - theta_steer)
    integrand = (
        response
        * np.exp(1j * x * np.cos(theta - phi))
        * np.exp(-1j * n * (theta - theta_steer))
    )
    return complex(integrand.mean())


def build_psi_matrix(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    order: int,
) -> np.ndarray:
    """Matching matrix for omnidirectional elements: the oracle for ``q = 0``.

    Entry (row n, column m) is the plane-wave (Jacobi-Anger) term ``j^n J_n(x_m)
    e^{-jn phi_m}``, ``x_m = omega r_m / c``, from the scalar Bessel kernel.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    x = omega * geometry.element_values[0] / constants.speed_of_sound
    return np.array([
        [unit_imaginary_power(n) * _jn_signed(n, float(x_m)) * cmath.exp(-1j * n * e.phi)
         for x_m, e in zip(x, geometry.elements)]
        for n in range(-order, order + 1)
    ])


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
    if integration_points < MIN_INTEGRATION_POINTS:
        raise ValueError(
            f"integration_points must be >= {MIN_INTEGRATION_POINTS}, got {integration_points}"
        )
    h = filt.weights_at(omega)
    if float(np.vdot(h, h).real) == 0.0:
        raise InvalidFilterError("filter has zero norm at this frequency")
    grid = -np.pi + 2.0 * np.pi * np.arange(integration_points) / integration_points
    responses = beampattern(filt, geometry, constants, omega, grid)
    mean_power = float(np.mean(np.abs(responses) ** 2))
    peak = abs(beampattern(filt, geometry, constants, omega, theta_s)) ** 2
    return peak / mean_power


def steering_vector(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    theta,
) -> np.ndarray:
    """Far-field plane-wave response of the bare array positions.

    Entry m is ``exp(j * (omega * r_m / c) * cos(theta - phi_m))``; every
    entry is a pure phase.

    Parameters
    ----------
    omega : float
        Angular frequency in rad/s, >= 0.
    theta : float or array
        Arrival angle(s) in radians.

    Returns
    -------
    ndarray
        Complex, shape (M,) for scalar theta and (M, K) for a K-vector.
    """
    omega = float(omega)
    if not (math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"omega must be finite and >= 0, got {omega!r}")
    x = omega * geometry.element_values[0] / constants.speed_of_sound
    phi = geometry.element_values[1]
    th = np.asarray(theta, dtype=float)
    if th.ndim == 0:
        return np.exp(1j * x * np.cos(float(th) - phi))
    return np.exp(1j * x[:, None] * np.cos(th[None, :] - phi[:, None]))


def harmonic_tensor(
    geometry: ArrayGeometry, constants: PhysicalConstants, omegas, n_values,
    element_model: str = "first_order",
) -> np.ndarray:
    """`modal.element_harmonics` of one geometry as ``element_model`` sees it:
    entry ``[f, i, m]`` is ``P_{n,m} e^{-jn theta_m}`` for ``n = n_values[i]``
    at ``omegas[f]`` (rad/s), shape (F, len(n_values), M)."""
    n_values = np.asarray(n_values, dtype=int)
    reach = int(np.abs(n_values).max())
    values = model_values(geometry.element_values, element_model)
    xi = element_harmonics(values, omegas, reach, constants.speed_of_sound)
    return xi[..., n_values + reach, :]


def build_xi_matrix(
    geometry: ArrayGeometry, constants: PhysicalConstants, omega: float, order: int
) -> np.ndarray:
    """Matching matrix for first-order elements: one frequency of `harmonic_tensor`.

    With every shape coefficient zero it reduces elementwise to the plane-wave
    matrix (`build_psi_matrix`).
    """
    return harmonic_tensor(geometry, constants, [omega], np.arange(-order, order + 1))[0]


@dataclass(frozen=True)
class ModalSystem:
    """Matching system at one frequency: ``matrix @ conj(h) = rhs``."""

    matrix: np.ndarray
    rhs: np.ndarray
    omega: float
    order: int


def build_modal_system(
    geometry: ArrayGeometry, constants: PhysicalConstants, omega: float,
    target: SteeredTarget, element_model: str = "first_order",
) -> ModalSystem:
    """The matching matrix of ``element_model`` ("first_order" or "omni")
    and the steered right-hand side at one frequency."""
    n_values = np.arange(-target.order, target.order + 1)
    matrix = harmonic_tensor(geometry, constants, [omega], n_values, element_model)[0]
    rhs = apply_steering(target.coefficients, target.theta_s)
    return ModalSystem(matrix=matrix, rhs=rhs, omega=float(omega), order=target.order)


def gain_curves(
    filt: BeamformerFilter, geometry: ArrayGeometry, constants: PhysicalConstants,
    theta_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """White noise gain and directivity factor (linear) over the grid, scored
    by `metrics.coefficient_gains` from `metrics.filter_coefficients`."""
    coefficients = filter_coefficients(filt, geometry, constants)
    return coefficient_gains(coefficients, filt.weights, theta_s)


def b_to_a(coefficients: SymmetricB) -> PatternCoefficients:
    """Inverse of `patterns.a_to_b`: a_0 = b_0, a_i = 2 b_i."""
    order = coefficients.order
    a = [coefficients.b[order]]
    a.extend(2.0 * coefficients.b[order + i] for i in range(1, order + 1))
    return PatternCoefficients(a=tuple(a))
