"""Minimum-norm filter design over a frequency grid.

The matching system is wide ((2N+1) x M with M >= 2N+1), so after
conjugating both sides the filter is the minimum-Euclidean-norm solution
``h = A^H (A A^H)^{-1} rhs`` with ``A = conj(Xi)``. The Gram systems of a
whole grid are solved as one stack after an exact power-of-two row
equilibration (which leaves the solution set, and hence the minimum-norm
solution, unchanged while taming the scale disparity between harmonic
rows). Rank deficiency is checked on the unscaled Gram matrices and fails
loudly: a near-singular system means the geometry cannot render the
requested order, and regularizing silently would hide that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FrequencyGridError, RankDeficientSystemError
from .geometry import ArrayGeometry, PhysicalConstants, geometry_digest
from .modal import harmonic_tensor
from .patterns import SteeredTarget, apply_steering

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class FrequencyGrid:
    """Linearly spaced design grid in Hz."""

    f_min_hz: float
    f_max_hz: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.f_min_hz <= self.f_max_hz):
            raise ValueError("need 0 < f_min <= f_max")
        if not (math.isfinite(self.f_min_hz) and math.isfinite(self.f_max_hz)):
            raise ValueError("grid bounds must be finite")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    # read-only arrays, built once per instance
    @cached_property
    def frequencies_hz(self) -> np.ndarray:
        frequencies = np.linspace(self.f_min_hz, self.f_max_hz, self.count)
        frequencies.setflags(write=False)
        return frequencies

    @cached_property
    def omegas(self) -> np.ndarray:
        omegas = 2.0 * np.pi * self.frequencies_hz
        omegas.setflags(write=False)
        return omegas


@dataclass(frozen=True)
class BeamformerFilter:
    """Per-frequency complex weights plus enough metadata to audit them."""

    grid: FrequencyGrid
    weights: np.ndarray  # (grid.count, M) complex
    order: int
    theta_s: float
    pattern_id: str
    geometry_digest: str
    element_model: str

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=complex)
        if weights.shape[0] != self.grid.count or weights.ndim != 2:
            raise ValueError("need one weight vector per grid frequency")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.weights.shape[1]

    def frequency_index(self, omega: float) -> int:
        """Index of ``omega`` on the design grid; exact matches only."""
        f = omega / (2.0 * np.pi)
        grid = self.grid.frequencies_hz
        hits = np.flatnonzero(np.isclose(grid, f, rtol=1e-9, atol=1e-9))
        if hits.size == 0:
            raise FrequencyGridError(
                f"{f} Hz is not a design-grid frequency; filters are not "
                "interpolated between grid points"
            )
        return int(hits[0])

    def weights_at(self, omega: float) -> np.ndarray:
        return self.weights[self.frequency_index(omega)]


def rank_gate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rank gate on a stack of (..., R, C) wide systems.

    Returns ``(refused, condition)``, both shaped like the stack: a system is
    refused when the smallest eigenvalue of its unscaled Gram ``A A^H`` falls
    below 1e-10 times the largest; ``condition`` is their ratio (inf when the
    smallest is not positive).
    """
    eigs = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
    largest, smallest = eigs[..., -1], eigs[..., 0]
    refused = (largest <= 0.0) | (smallest < RANK_RTOL * largest)
    condition = np.divide(largest, smallest, out=np.full_like(largest, math.inf),
                          where=smallest > 0.0)
    return refused, condition


def rank_deficiency(
    condition: float, frequency_hz: float | None = None
) -> RankDeficientSystemError:
    """The error for a system the rank gate refused, naming its frequency if known."""
    where = "" if frequency_hz is None else f" at {frequency_hz:.6g} Hz"
    return RankDeficientSystemError(
        f"modal system is rank deficient (Gram condition ~ {condition:.3e}){where}",
        condition,
        frequency_hz,
    )


def _solve_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate a stack of (..., R, C) wide systems, R <= C, and solve the accepted ones.

    ``b`` broadcasts against (..., R). Returns ``(h, refused, condition)``:
    ``h`` is (..., C), NaN where the system was refused; the other two come
    from `rank_gate`. Each step is one stacked call.
    """
    refused, condition = rank_gate(a)
    h = np.full(a.shape[:-2] + a.shape[-1:], np.nan, dtype=complex)
    accepted = ~refused
    a = a[accepted]
    b = np.broadcast_to(b, refused.shape + b.shape[-1:])[accepted]
    # exact power-of-two row scaling: same constraint set, better-behaved Gram
    row_norms = np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    scales = np.exp2(np.round(np.log2(row_norms)))
    a_eq = a / scales[..., None]
    b_eq = b / scales
    # numpy has no stacked triangular solve; its general one serves the factors
    chol = np.linalg.cholesky(a_eq @ a_eq.conj().swapaxes(-1, -2))
    y = np.linalg.solve(chol.conj().swapaxes(-1, -2), np.linalg.solve(chol, b_eq[..., None]))
    h[accepted] = (a_eq.conj().swapaxes(-1, -2) @ y)[..., 0]
    return h, refused, condition


def min_norm_solve(matrix, rhs) -> np.ndarray:
    """Minimum-norm solution of a wide full-row-rank complex system.

    Parameters
    ----------
    matrix : (R, C) complex array, R <= C
    rhs : (R,) complex array

    Returns
    -------
    ndarray
        The smallest-Euclidean-norm ``h`` with ``matrix @ h = rhs``,
        computed as ``A^H (A A^H)^{-1} rhs``.

    Raises
    ------
    RankDeficientSystemError
        When the smallest eigenvalue of ``A A^H`` falls below 1e-10
        times the largest.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    b = np.asarray(rhs, dtype=complex).ravel()
    rows, cols = a.shape
    if rows > cols:
        raise ValueError(f"system must be wide, got shape {a.shape}")
    if b.shape != (rows,):
        raise ValueError(f"rhs length {b.shape} does not match {rows} rows")
    h, refused, condition = _solve_wide(a[None], b[None])
    if refused[0]:
        raise rank_deficiency(float(condition[0]))
    return h[0]


def design_rhs(target: SteeredTarget) -> np.ndarray:
    """Conjugated right-hand side of the matching systems, the same at every
    frequency; the target must be distortionless-normalized."""
    total = sum(target.coefficients.b)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"target is not distortionless-normalized (coefficient sum {total!r})"
        )
    return apply_steering(target.coefficients, target.theta_s).conj()


def design_filter(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    target: SteeredTarget,
    grid: FrequencyGrid,
    element_model: str = "first_order",
    pattern_id: str = "custom",
) -> BeamformerFilter:
    """Solve the conjugated matching system at every grid frequency.

    Requires M >= 2N+1 and a distortionless-normalized target. The
    right-hand side is frequency invariant; the matching matrices of the
    whole grid come from one `harmonic_tensor` call and are solved as one
    stack.

    Raises
    ------
    RankDeficientSystemError
        For the lowest refused grid frequency, which it names.
    """
    rows = 2 * target.order + 1
    if geometry.size < rows:
        raise ValueError(
            f"order {target.order} needs at least {rows} elements, "
            f"geometry has {geometry.size}"
        )
    rhs = design_rhs(target)
    n_values = np.arange(-target.order, target.order + 1)
    xi = harmonic_tensor(geometry, constants, grid.omegas, n_values, element_model)
    weights, refused, condition = _solve_wide(xi.conj(), rhs)
    if refused.any():
        i = int(np.argmax(refused))
        raise rank_deficiency(float(condition[i]), float(grid.frequencies_hz[i]))
    return BeamformerFilter(
        grid=grid,
        weights=weights,
        order=target.order,
        theta_s=target.theta_s,
        pattern_id=pattern_id,
        geometry_digest=geometry_digest(geometry),
        element_model=element_model,
    )
