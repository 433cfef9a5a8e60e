"""Bessel functions of the first kind for integer orders.

Real nonnegative arguments only, which is all the modal expansions need
(the argument is always a normalized aperture ``omega * r / c``).
`bessel_order_table`, every order over a whole array of arguments in one
vectorized sweep, serves the design and metrics paths. The scalar
`bessel_j` is its independent oracle, with two evaluation regimes: the
ascending power series for small arguments and a normalized downward
(Miller) recurrence beyond, where the series starts losing digits to
cancellation. Negative orders go through the symmetry
``J_{-n}(x) = (-1)^n J_n(x)`` so it holds exactly as implemented.
"""

from __future__ import annotations

import math

import numpy as np

ORDER_CAP = 64
MIN_QUADRATURE_POINTS = 256
# the box over which `bessel_order_table` is checked against mpmath
TABLE_ORDER_CAP = 256
TABLE_ARGUMENT_CAP = 100.0

# regime switch: the ascending series starts shedding digits to
# alternating-term cancellation as x grows (~1e-13 by x = 12, enough to
# spoil finite-difference checks), while the normalized recurrence stays
# at machine precision all the way down; hand over early
_SERIES_LIMIT = 4.0
_RESCALE = 1e100


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


def bessel_j_table(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x), each entry bit-identical to `bessel_j`."""
    n_max = int(n_max)
    if n_max < 0 or n_max > ORDER_CAP + 1:
        raise ValueError(f"table order must be in [0, {ORDER_CAP + 1}], got {n_max}")
    x = _check_kernel_argument(x)
    return np.array([_jn(k, x) for k in range(n_max + 1)])


def bessel_order_table(n_max: int, x) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) over an argument array, shape (n_max + 1, *x.shape).

    One downward sweep of the ratios ``r_k = J_k / J_{k-1} = x / (2k - x
    r_{k+1})``, which cannot overflow, normalized by ``J_0 + 2 sum J_{2k}
    = 1``. Orders up to 256 and arguments in [0, 100], where it agrees with
    mpmath to an absolute 1e-14; arguments outside are refused.
    """
    n_max = int(n_max)
    if not 0 <= n_max <= TABLE_ORDER_CAP:
        raise ValueError(f"table order must be in [0, {TABLE_ORDER_CAP}], got {n_max}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= TABLE_ARGUMENT_CAP)):
        raise ValueError(f"argument must lie in [0, {TABLE_ARGUMENT_CAP}], got up to {x.max()!r}")
    top = max(n_max, math.ceil(x.max(initial=0.0)))
    steps = top + 12 + int(math.sqrt(40.0 * (top + 1)))
    ratios = np.empty((steps,) + x.shape)
    r = np.zeros(x.shape)
    for k in range(steps, 0, -1):
        r = ratios[k - 1] = x / (2.0 * k - x * r)
    to_j0 = np.cumprod(ratios, axis=0, out=ratios)  # J_k / J_0 for k = 1 .. steps
    j0 = 1.0 / (1.0 + 2.0 * to_j0[1::2].sum(axis=0))
    return np.concatenate([j0[None], j0 * to_j0[:n_max]])


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
