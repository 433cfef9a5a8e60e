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
from .modal import element_harmonics, model_values
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
        if self.count == 1 and self.f_min_hz != self.f_max_hz:
            raise ValueError(
                f"a one-point grid designs at f_min only, so f_max must equal it; "
                f"got f_min {self.f_min_hz:g} and f_max {self.f_max_hz:g} Hz"
            )

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

    def index(self, f_hz: float) -> int:
        """Index of ``f_hz`` on the grid, matched to 1e-9 (relative and absolute).

        Raises `FrequencyGridError` for any other frequency: nothing is
        interpolated between grid points.
        """
        hits = np.flatnonzero(np.isclose(self.frequencies_hz, f_hz, rtol=1e-9, atol=1e-9))
        if hits.size == 0:
            raise FrequencyGridError(
                f"{f_hz} Hz is not a design-grid frequency; filters are not "
                "interpolated between grid points"
            )
        return int(hits[0])


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
        return self.grid.index(omega / (2.0 * np.pi))

    def weights_at(self, omega: float) -> np.ndarray:
        return self.weights[self.frequency_index(omega)]


def rank_deficiency(condition: float, frequency_hz: float) -> RankDeficientSystemError:
    """The error for a system the rank gate refused at ``frequency_hz``."""
    return RankDeficientSystemError(
        f"modal system is rank deficient (Gram condition ~ {condition:.3e}) "
        f"at {frequency_hz:.6g} Hz",
        condition,
        frequency_hz,
    )


def solve_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gate a stack of (..., R, C) wide systems, R <= C, and solve the accepted ones.

    ``b`` broadcasts against (..., R). Returns ``(h, refused, condition)``:
    ``h`` is (..., C), NaN where refused; the rank gate refuses a system when
    the smallest eigenvalue of its unscaled Gram ``A A^H`` falls below 1e-10
    times the largest, and ``condition`` is their ratio (inf when the
    smallest is not positive). Each step is one stacked call.
    """
    gram = a @ a.conj().swapaxes(-1, -2)
    eigs = np.linalg.eigvalsh(gram)
    largest, smallest = eigs[..., -1], eigs[..., 0]
    refused = (largest <= 0.0) | (smallest < RANK_RTOL * largest)
    condition = np.divide(largest, smallest, out=np.full_like(largest, math.inf),
                          where=smallest > 0.0)
    h = np.full(a.shape[:-2] + a.shape[-1:], np.nan, dtype=complex)
    accepted = ~refused
    a = a[accepted]
    b = np.broadcast_to(b, refused.shape + b.shape[-1:])[accepted]
    # exact power-of-two row scaling: same constraint set, better-behaved Gram;
    # scaling by powers of two is exact, so the scaled Gram is the gate's
    # divided by s_i s_j, bit for bit
    row_norms = np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    scales = np.exp2(np.round(np.log2(row_norms)))
    a_eq = a / scales[..., None]
    b_eq = b / scales
    # numpy has no stacked triangular solve; its general one serves the factors
    chol = np.linalg.cholesky(gram[accepted] / (scales[..., :, None] * scales[..., None, :]))
    y = np.linalg.solve(chol.conj().swapaxes(-1, -2), np.linalg.solve(chol, b_eq[..., None]))
    h[accepted] = (a_eq.conj().swapaxes(-1, -2) @ y)[..., 0]
    return h, refused, condition


def design_rhs(target: SteeredTarget) -> np.ndarray:
    """Conjugated right-hand side of the matching systems, the same at every
    frequency; the target must be distortionless-normalized."""
    total = sum(target.coefficients.b)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"target is not distortionless-normalized (coefficient sum {total!r})"
        )
    return apply_steering(target.coefficients, target.theta_s).conj()


def design_weights(xi, target: SteeredTarget) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The design half: weights for a stack of arrays from their model's
    harmonic tensors ``xi`` (..., F, K, M), of any reach L >= N.

    The rows ``n = -N .. N``, read off the centre of ``xi``, are solved as
    one stack against `design_rhs`; the centre of a reach-L tensor holds the
    same bits as a build at reach N. Requires M >= 2N+1 and a normalized
    target. Returns ``(weights, refused, condition)`` as `solve_wide` gives
    them, (..., F, M) and (..., F).
    """
    order = target.order
    rows, elements = 2 * order + 1, xi.shape[-1]
    if elements < rows:
        raise ValueError(f"order {order} needs at least {rows} elements, got {elements}")
    reach = xi.shape[-2] // 2
    rhs = design_rhs(target)
    return solve_wide(xi[..., reach - order : reach + order + 1, :].conj(), rhs)


def design_filter(
    geometry: ArrayGeometry,
    constants: PhysicalConstants,
    target: SteeredTarget,
    grid: FrequencyGrid,
    element_model: str = "first_order",
    pattern_id: str = "custom",
) -> BeamformerFilter:
    """The `design_weights` of one geometry over ``grid``, from the tensor of
    reach N that ``element_model`` sees (`modal.model_values`), as a filter.

    Raises
    ------
    RankDeficientSystemError
        For the lowest refused grid frequency, which it names.
    """
    values = model_values(geometry.element_values, element_model)
    xi = element_harmonics(values, grid.omegas, target.order, constants.speed_of_sound)
    weights, refused, condition = design_weights(xi, target)
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
