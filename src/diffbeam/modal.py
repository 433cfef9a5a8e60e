"""Circular-harmonic coefficients of element responses and the modal
matching matrices built from them.

The response of element m to a plane wave from angle theta, propagation
phase included, expands as ``sum_n P_{n,m} exp(jn(theta - theta_m))``
about the element's own steering angle. The coefficients have a closed
form in Bessel functions; `harmonic_coefficient_quadrature` evaluates the
defining Fourier integral directly and is kept as an independent oracle
for it. Rows of the matching matrices are ordered n = -N .. N top to
bottom (harmonic n at row index n + N).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bessel import _check_argument, _jn_signed, bessel_order_table
from .geometry import ArrayGeometry, PhysicalConstants
from .patterns import SteeredTarget, apply_steering

MIN_COEFFICIENT_QUADRATURE_POINTS = 1024

# powers of the imaginary unit cycle with period four; indexing this table
# keeps the phase factors exact instead of round-tripping through exp()
_J_POWER = (1 + 0j, 1j, -1 + 0j, -1j)

ELEMENT_MODELS = ("first_order", "omni")


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
        Normalized aperture omega * r / c, >= 0.
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
    x = _check_argument(x)
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


def harmonic_tensor(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omegas,
    n_values,
    element_model: str = "first_order",
) -> np.ndarray:
    """Matching-matrix entries for a whole frequency grid at once.

    Entry ``[f, i, m]`` is ``P_{n,m} e^{-jn theta_m}`` for ``n = n_values[i]``
    at ``omegas[f]`` (rad/s), shape (F, len(n_values), M); see
    `element_harmonics`. The "omni" element model sets every q to zero.
    """
    values = model_values(geometry.element_values, element_model)
    return element_harmonics(values, omegas, n_values, constants.speed_of_sound)


def model_values(values: np.ndarray, element_model: str) -> np.ndarray:
    """Element values (rows r, phi, q, theta_steer) as ``element_model`` sees them."""
    if element_model not in ELEMENT_MODELS:
        raise ValueError(f"unknown element model {element_model!r}")
    if element_model == "omni":
        values = values.copy()
        values[2] = 0.0
    return values


def element_harmonics(values, omegas, n_values, speed_of_sound: float) -> np.ndarray:
    """`harmonic_tensor` over a stack of arrays: values (4, ..., M) to (..., F, K, M).

    ``values`` holds the rows r, phi, q and theta_steer of every element.
    With the plane-wave term ``G_k = j^k J_k(x_m) e^{-jk phi_m}`` the entry
    for harmonic n is ``(1-q) G_n + (q/2) (G_{n+1} e^{j theta_m} + G_{n-1}
    e^{-j theta_m})``, all Bessel values coming from one table over every
    argument ``x = omega r / c`` of the stack.
    """
    n_values = np.atleast_1d(np.asarray(n_values, dtype=int))
    r, phi, q, steer = (np.asarray(v)[..., None] for v in values)
    # frequency is the last axis while building, so that the element factors,
    # shaped (..., M, 1), broadcast along the longest axis; the result is moved
    # to (..., F, K, M) at the end
    x = r * np.atleast_1d(omegas) / speed_of_sound
    k = np.arange(n_values.min() - 1, n_values.max() + 2)
    table = bessel_order_table(int(np.abs(k).max()), x)
    # j^k, and (-1)^k for the negative orders read off the |k| table
    units = np.asarray(_J_POWER)[k % 4] * np.where((k < 0) & (k % 2 == 1), -1.0, 1.0)
    along_k = (slice(None),) + (None,) * phi.ndim
    g = table[np.abs(k)] * (units[along_k] * np.exp(-1j * (k[along_k] * phi)))
    rows = n_values - k[0]
    turn = np.exp(1j * steer)
    # in place, to hold the temporaries of a large stack down
    xi = g[rows + 1] * turn
    xi += g[rows - 1] * turn.conj()
    xi *= 0.5 * q
    xi += (1.0 - q) * g[rows]
    return np.ascontiguousarray(np.moveaxis(xi, (0, -1), (-2, -3)))


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
    x = omega * geometry.radii / constants.speed_of_sound
    return np.array([
        [unit_imaginary_power(n) * _jn_signed(n, float(x_m)) * cmath.exp(-1j * n * e.phi)
         for x_m, e in zip(x, geometry.elements)]
        for n in range(-order, order + 1)
    ])


def build_xi_matrix(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    order: int,
) -> np.ndarray:
    """Matching matrix for first-order elements: one frequency of `harmonic_tensor`.

    With every shape coefficient zero it reduces elementwise to `build_psi_matrix`.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    return harmonic_tensor(geometry, constants, [omega], np.arange(-order, order + 1))[0]


@dataclass(frozen=True)
class ModalSystem:
    """Matching system at one frequency: ``matrix @ conj(h) = rhs``."""

    matrix: np.ndarray
    rhs: np.ndarray
    omega: float
    order: int

    def __post_init__(self):
        rows = 2 * self.order + 1
        if self.matrix.shape[0] != rows or self.rhs.shape != (rows,):
            raise ValueError("system shapes do not match the stated order")


def build_modal_system(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    target: SteeredTarget,
    element_model: str = "first_order",
) -> ModalSystem:
    """Assemble the matching matrix and steered right-hand side.

    ``element_model`` selects the first-order matrix or the
    omnidirectional reduction ("omni").
    """
    n_values = np.arange(-target.order, target.order + 1)
    matrix = harmonic_tensor(geometry, constants, [omega], n_values, element_model)[0]
    rhs = apply_steering(target.coefficients, target.theta_s)
    return ModalSystem(matrix=matrix, rhs=rhs, omega=float(omega), order=target.order)
