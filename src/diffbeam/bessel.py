"""Bessel functions of the first kind for integer orders.

Real nonnegative arguments only, which is all the modal expansions need
(the argument is always a normalized aperture ``omega * r / c``).
`bessel_order_table`, every order over a whole array of arguments in one
vectorized sweep, serves the design and metrics paths. Its scalar
oracles, `bessel_j` (series and Miller recurrence) and the integral-form
`hansen_bessel_quadrature`, live in `diffbeam.oracles`.
"""

from __future__ import annotations

import math

import numpy as np

# the box over which `bessel_order_table` is checked against mpmath
TABLE_ORDER_CAP = 256
TABLE_ARGUMENT_CAP = 100.0


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
