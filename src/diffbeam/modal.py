"""Circular-harmonic coefficients of element responses and the modal
matching matrices built from them.

The response of element m to a plane wave from angle theta, propagation
phase included, expands as ``sum_n P_{n,m} exp(jn(theta - theta_m))``
about the element's own steering angle. The coefficients have a closed
form in Bessel functions, which `element_harmonics` evaluates for whole
stacks of arrays and frequencies. Since J_{-n} = (-1)^n J_n, the entries
for n and -n come from the same real Bessel combinations, so all the
frequency-dependent work is real and covers n >= 0 only; the complex
phase does not depend on frequency and is applied once. Its scalar
oracles (the closed form `harmonic_coefficient`, the defining Fourier
integral `harmonic_coefficient_quadrature` and the plane-wave matrix
`build_psi_matrix`) live in `diffbeam.oracles`. Rows of the matching
matrices are ordered n = -N .. N top to bottom (harmonic n at row index
n + N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_order_table
from .geometry import ArrayGeometry, PhysicalConstants
from .patterns import SteeredTarget, apply_steering

# powers of the imaginary unit cycle with period four; indexing this table
# keeps the phase factors exact instead of round-tripping through exp()
_J_POWER = (1 + 0j, 1j, -1 + 0j, -1j)

ELEMENT_MODELS = ("first_order", "omni")


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
    With ``alpha = theta_steer - phi``, ``S_n = J_{n+1} + J_{n-1}`` and
    ``D_n = J_{n+1} - J_{n-1}`` (``J_{-1} = -J_1``) the entries for n >= 0
    fold by parity into one real bracket each:

        Xi_{+n} = j^n e^{-jn phi} [(1-q) J_n - (q/2) sin(alpha) S_n + j (q/2) cos(alpha) D_n]
        Xi_{-n} = j^n e^{+jn phi} [(1-q) J_n + (q/2) sin(alpha) S_n + j (q/2) cos(alpha) D_n]

    Every frequency-dependent step is real and covers n >= 0 only, from one
    Bessel table over every argument ``x = omega r / c`` of the stack; the
    phase has no frequency axis and is applied by one complex multiply.
    Orders ``-R .. R``, R = max |n_values|, are built and ``n_values`` (any
    order, repeats allowed) is read off them.
    """
    n_values = np.atleast_1d(np.asarray(n_values, dtype=int))
    r, phi, q, steer = (np.asarray(v)[..., None] for v in values)
    # frequency is the last axis while building, so that the element factors,
    # shaped (..., M, 1), broadcast along the longest axis; the result is moved
    # to (..., F, K, M) at the end
    x = r * np.atleast_1d(omegas) / speed_of_sound
    reach = int(np.abs(n_values).max())
    table = bessel_order_table(reach + 1, x)
    s = np.empty_like(table[:-1])
    d = np.empty_like(s)
    np.add(table[2:], table[:-2], out=s[1:])
    np.subtract(table[2:], table[:-2], out=d[1:])
    s[0] = 0.0
    d[0] = 2.0 * table[1]
    alpha = steer - phi
    s *= 0.5 * q * np.sin(alpha)
    d *= 0.5 * q * np.cos(alpha)
    omni = (1.0 - q) * table[:-1]
    # rows n = -R .. R; `up` holds n >= 0 and `down` the mirror -n
    xi = np.empty((2 * reach + 1,) + x.shape, dtype=complex)
    up, down = xi[reach:], xi[reach::-1]
    np.subtract(omni, s, out=up.real)
    np.add(omni[1:], s[1:], out=down[1:].real)
    up.imag = d
    down[1:].imag = d[1:]
    # the phase j^{|k|} e^{-jk phi}, k = -R .. R, has no frequency axis
    k = np.arange(-reach, reach + 1)
    along = (slice(None),) + (None,) * phi.ndim
    xi *= np.asarray(_J_POWER)[np.abs(k) % 4][along] * np.exp(-1j * k[along] * phi)
    rows = n_values + reach
    # every caller asks for a run of orders, read as a view: a gather would
    # allocate and fault in one more tensor-sized array, a large share of the
    # kernel's time
    if np.all(np.diff(rows) == 1):
        rows = slice(rows[0], rows[-1] + 1)
    return np.ascontiguousarray(np.moveaxis(xi[rows], (0, -1), (-2, -3)))


def build_xi_matrix(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    omega: float,
    order: int,
) -> np.ndarray:
    """Matching matrix for first-order elements: one frequency of `harmonic_tensor`.

    With every shape coefficient zero it reduces elementwise to the plane-wave
    matrix (`diffbeam.oracles.build_psi_matrix`).
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
