"""Circular-harmonic coefficients of element responses, the entries of
the modal matching matrices.

The response of element m to a plane wave from angle theta, propagation
phase included, expands as ``sum_n P_{n,m} exp(jn(theta - theta_m))``
about the element's own steering angle. The coefficients have a closed
form in Bessel functions, which `element_harmonics` evaluates for whole
stacks of arrays and frequencies; `model_values` gives the arrays as an
element model sees them ("omni" sets every q to zero). Since J_{-n} =
(-1)^n J_n, the entries for n and -n come from the same real Bessel
combinations, so all the frequency-dependent work is real and covers
n >= 0 only; the complex phase does not depend on frequency, and one
exponential serves both n and -n. Its scalar oracles (the closed form
`harmonic_coefficient`, the defining Fourier integral
`harmonic_coefficient_quadrature` and the plane-wave matrix
`build_psi_matrix`) live in `diffbeam.oracles`.

Every harmonic tensor and coefficient vector in the package covers the
orders n = -L .. L, harmonic n at index n + L, and is described by its
reach L alone: a tensor's K = 2L + 1 gives L = K // 2, the matching rows
of order N are its centre n = -N .. N, and no order list is passed.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import TABLE_ARGUMENT_CAP, bessel_order_table

# powers of the imaginary unit cycle with period four; indexing this table
# keeps the phase factors exact instead of round-tripping through exp()
_J_POWER = (1 + 0j, 1j, -1 + 0j, -1j)

ELEMENT_MODELS = ("first_order", "omni")


def model_values(values: np.ndarray, element_model: str) -> np.ndarray:
    """Element values (rows r, phi, q, theta_steer) as ``element_model`` sees them."""
    if element_model not in ELEMENT_MODELS:
        raise ValueError(f"unknown element model {element_model!r}")
    if element_model == "omni":
        values = values.copy()
        values[2] = 0.0
    return values


def check_reach(radius: float, omega: float, speed_of_sound: float, what: str) -> None:
    """Refuse a radius (m) at an angular frequency whose normalized aperture
    ``omega r / c`` lies past the Bessel table's domain, naming it ``what``;
    given the largest radius and frequency, it refuses what the table would."""
    x = radius * omega / speed_of_sound
    if not x <= TABLE_ARGUMENT_CAP:
        raise ValueError(
            f"{what} {radius * 1e3:g} mm at {omega / (2.0 * math.pi):g} Hz gives "
            f"omega r / c = {x:.1f}, past {TABLE_ARGUMENT_CAP:g}, the largest argument "
            "the Bessel table is checked for"
        )


def element_harmonics(values, omegas, reach: int, speed_of_sound: float) -> np.ndarray:
    """Matching-matrix entries ``P_{n,m} e^{-jn theta_m}`` of the orders
    ``n = -reach .. reach`` over a stack of arrays and a frequency grid:
    values (4, ..., M) to (..., F, 2 reach + 1, M).

    ``values`` holds the rows r, phi, q and theta_steer of every element.
    With ``alpha = theta_steer - phi``, ``S_n = J_{n+1} + J_{n-1}`` and
    ``D_n = J_{n+1} - J_{n-1}`` (``J_{-1} = -J_1``) the entries for n >= 0
    fold by parity into one real bracket each:

        Xi_{+n} = j^n e^{-jn phi} [(1-q) J_n - (q/2) sin(alpha) S_n + j (q/2) cos(alpha) D_n]
        Xi_{-n} = j^n e^{+jn phi} [(1-q) J_n + (q/2) sin(alpha) S_n + j (q/2) cos(alpha) D_n]

    Every frequency-dependent step is real and covers n >= 0 only, from one
    Bessel table over every argument ``x = omega r / c`` of the stack; the
    phase has no frequency axis and takes one complex exponential per pair
    of orders +-n.
    """
    r, phi, q, steer = (np.asarray(v)[..., None] for v in values)
    # frequency is the last axis while building, so that the element factors,
    # shaped (..., M, 1), broadcast along the longest axis; the result is moved
    # to (..., F, K, M) at the end
    x = r * np.atleast_1d(omegas) / speed_of_sound
    # x peaks at the largest radius and the top of the grid: refuse there in
    # physical terms before the table refuses in its own
    check_reach(np.max(r, initial=0.0), np.max(omegas), speed_of_sound,
                "largest element radius")
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
    # rows n = -reach .. reach; `up` holds n >= 0 and `down` the mirror -n
    xi = np.empty((2 * reach + 1,) + x.shape, dtype=complex)
    up, down = xi[reach:], xi[reach::-1]
    np.subtract(omni, s, out=up.real)
    np.add(omni[1:], s[1:], out=down[1:].real)
    up.imag = d
    down[1:].imag = d[1:]
    # the real brackets are spent: free them before the phase and the layout
    # copy, which would otherwise hold them beside two tensors
    del table, s, d, omni
    # the phase j^{|k|} e^{-jk phi}, |k| <= reach, has no frequency axis; one
    # exponential serves each pair +-k, since e^{+jk phi} is the conjugate of
    # e^{-jk phi} bit for bit once a zero imaginary part is taken as +0, which
    # 0 - imag does
    k = np.arange(1, reach + 1)
    along = (slice(None),) + (None,) * phi.ndim
    power = np.asarray(_J_POWER)[k % 4][along]
    e = np.exp(-1j * k[along] * phi)
    up[1:] *= power * e
    np.subtract(0.0, e.imag, out=e.imag)
    down[1:] *= power * e
    # the phase of n = 0 is 1 + 0j; multiplying by it still sets the signs of
    # zero parts as the complex product does
    up[0] *= 1.0 + 0.0j
    return np.ascontiguousarray(np.moveaxis(xi, (0, -1), (-2, -3)))
