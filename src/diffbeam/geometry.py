"""Planar arrays of first-order directional elements.

Elements live in the xy-plane at polar positions (r, phi) and carry a
first-order angular response ``(1 - q) + q * cos(theta - theta_steer)``:
``q = 0`` is omnidirectional, ``q = 1`` a dipole aimed at ``theta_steer``.
Angles are radians everywhere inside the package; degrees appear only at
file and CLI boundaries.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._seeding import uniform_windows
from .errors import InfeasibleGeometryError

TWO_PI = 2.0 * math.pi

SAMPLING_BUDGET = 10**6
_PLACEMENT_CAP = 2000  # candidate draws per element before a full restart

# doubles of each trial's stream a stacked sample draws per element: the
# scalar sampler's first two blocks
STACK_WINDOW = 16
# trials per stacked batch hold their stream windows to about this many
# doubles, 1 MiB
SAMPLE_BATCH_DOUBLES = 1 << 17
# squared distances this close to min_spacing**2, relatively, are not decided
# in the stack: np.cos and math.cos may differ in the last ulp
_NEAR_SPACING = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap a finite angle to [0, 2*pi)."""
    return float(angle) % TWO_PI


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class PhysicalConstants:
    """Propagation constants; only the speed of sound matters here."""

    speed_of_sound: float = 343.0

    def __post_init__(self):
        c = self.speed_of_sound
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"speed of sound must be positive and finite, got {c!r}")


@dataclass(frozen=True)
class ArrayElement:
    """One transducer: polar position plus first-order directivity.

    Parameters
    ----------
    r : float
        Radial distance from the origin in meters, >= 0.
    phi : float
        Position angle against the x-axis in radians (wrapped to [0, 2pi)).
    q : float
        First-order shape coefficient in [0, 1].
    theta_steer : float
        Element steering angle in radians (wrapped to [0, 2pi)).
    """

    r: float
    phi: float
    q: float
    theta_steer: float

    def __post_init__(self):
        for name in ("r", "phi", "q", "theta_steer"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r < 0.0:
            raise ValueError(f"radial distance must be >= 0, got {self.r!r}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"shape coefficient must lie in [0, 1], got {self.q!r}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "theta_steer", wrap_angle(self.theta_steer))

    @property
    def position(self) -> tuple[float, float]:
        return (self.r * math.cos(self.phi), self.r * math.sin(self.phi))

    def response(self, theta):
        """First-order directivity (1-q) + q*cos(theta - theta_steer)."""
        return (1.0 - self.q) + self.q * np.cos(np.asarray(theta, dtype=float) - self.theta_steer)


@dataclass(frozen=True)
class ArrayGeometry:
    """Ordered collection of elements with the aperture constraints they
    are supposed to satisfy (use `validate_geometry` to check them)."""

    elements: tuple[ArrayElement, ...]
    aperture_radius: float
    min_spacing: float

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) < 1:
            raise ValueError("geometry needs at least one element")
        for name in ("aperture_radius", "min_spacing"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def element_values(self) -> np.ndarray:
        """Rows r, phi, q and theta_steer, shape (4, M), built once and read-only."""
        return _frozen([
            [e.r for e in self.elements],
            [e.phi for e in self.elements],
            [e.q for e in self.elements],
            [e.theta_steer for e in self.elements],
        ])

    @cached_property
    def positions(self) -> np.ndarray:
        return _frozen([e.position for e in self.elements])


@dataclass(frozen=True)
class GeometryReport:
    """Validation outcome; violations are data, not exceptions."""

    out_of_aperture: tuple[int, ...] = field(default_factory=tuple)
    spacing_violations: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.out_of_aperture and not self.spacing_violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for idx in self.out_of_aperture:
            lines.append(f"element {idx} lies outside the aperture")
        for i, j, dist in self.spacing_violations:
            lines.append(f"elements ({i}, {j}) are {dist * 1e3:.3f} mm apart")
        return "; ".join(lines)


def validate_geometry(geometry: ArrayGeometry) -> GeometryReport:
    """Check the aperture and pairwise spacing constraints.

    Returns
    -------
    GeometryReport
        ``ok`` when every element is within ``aperture_radius`` of the
        origin and all pairwise distances are >= ``min_spacing``.
    """
    out = tuple(
        i for i, e in enumerate(geometry.elements) if e.r > geometry.aperture_radius
    )
    pos = geometry.positions
    too_close = []
    for i in range(geometry.size):
        for j in range(i + 1, geometry.size):
            dist = float(np.hypot(*(pos[i] - pos[j])))
            if dist < geometry.min_spacing:
                too_close.append((i, j, dist))
    return GeometryReport(out_of_aperture=out, spacing_violations=tuple(too_close))


def sample_random_geometry(
    element_count: int,
    aperture_radius: float,
    min_spacing: float,
    seed: int,
) -> ArrayGeometry:
    """Draw a random admissible geometry, deterministically from ``seed``.

    Positions are uniform over the aperture disk; candidates closer than
    ``min_spacing`` to an already placed element are rejected and redrawn
    (with a full restart if an element cannot be placed at all). Shape
    coefficients are Uniform[0, 1] and element steering angles
    Uniform[0, 2pi).

    Raises
    ------
    InfeasibleGeometryError
        If the area heuristic ``M * (min_spacing / 2)^2 > aperture_radius^2``
        rules the request out immediately, or the rejection budget of
        10^6 candidate draws is exhausted.
    """
    values = sample_element_values(element_count, aperture_radius, min_spacing, seed)
    elements = tuple(
        ArrayElement(r=r, phi=phi, q=q, theta_steer=t) for r, phi, q, t in values.T.tolist()
    )
    return ArrayGeometry(
        elements=elements, aperture_radius=aperture_radius, min_spacing=min_spacing
    )


def _uniform_stream(rng: np.random.Generator, block: int):
    # Uniform[0, 1) doubles in generator order, drawn a block at a time
    while True:
        yield from rng.random(block).tolist()


def _clear_of(x: float, y: float, placed, min_sq: float) -> bool:
    # the rejection test: no placed element closer than sqrt(min_sq)
    for px, py in placed:
        if (x - px) ** 2 + (y - py) ** 2 < min_sq:
            return False
    return True


def sample_element_values(
    element_count: int,
    aperture_radius: float,
    min_spacing: float,
    seed: int,
) -> np.ndarray:
    """The element values `sample_random_geometry` draws for ``seed``.

    Rows r, phi, q and theta_steer, shape (4, M), with both angles wrapped
    to [0, 2pi). Each candidate consumes two doubles of the generator (the
    radius, then the angle); the M shapes and the M steering angles follow.
    Raises `InfeasibleGeometryError` as `sample_random_geometry` does.
    """
    element_count = int(element_count)
    if element_count < 1:
        raise ValueError("element_count must be >= 1")
    if element_count * (min_spacing / 2.0) ** 2 > aperture_radius**2:
        raise InfeasibleGeometryError(
            f"{element_count} elements with {min_spacing} m spacing cannot fit "
            f"an aperture of radius {aperture_radius} m"
        )
    uniform = _uniform_stream(np.random.default_rng(seed), 8 * element_count)
    min_sq = min_spacing * min_spacing
    attempts = 0
    while True:
        radii: list[float] = []
        angles: list[float] = []
        cartesian: list[tuple[float, float]] = []
        for _ in range(element_count):
            for _ in range(_PLACEMENT_CAP):
                attempts += 1
                if attempts > SAMPLING_BUDGET:
                    raise InfeasibleGeometryError(
                        f"rejection budget of {SAMPLING_BUDGET} draws exhausted "
                        f"for M={element_count}, spacing={min_spacing}, "
                        f"aperture={aperture_radius}"
                    )
                radius = aperture_radius * math.sqrt(next(uniform))
                angle = TWO_PI * next(uniform)
                x, y = radius * math.cos(angle), radius * math.sin(angle)
                if _clear_of(x, y, cartesian, min_sq):
                    radii.append(radius)
                    angles.append(wrap_angle(angle))
                    cartesian.append((x, y))
                    break
            else:
                break  # dead end: restart the whole placement
        else:
            break
    shapes = [next(uniform) for _ in range(element_count)]
    steers = [wrap_angle(TWO_PI * next(uniform)) for _ in range(element_count)]
    return np.array([radii, angles, shapes, steers])


def sample_element_stack(
    element_count: int,
    aperture_radius: float,
    min_spacing: float,
    seeds,
) -> tuple[np.ndarray, list[str | None]]:
    """`sample_element_values` for every seed, as one stack.

    Returns the values, shape (4, T, M), and one reason per trial: None
    for a sampled trial, else the message of the `InfeasibleGeometryError`
    `sample_element_values` raises for its seed (its values are then NaN).

    Each trial's first ``STACK_WINDOW * M`` doubles are drawn at once, in
    batches of trials whose windows hold about ``SAMPLE_BATCH_DOUBLES``,
    and each batch is placed slot by slot. A trial the window cannot
    settle is sampled again, from scratch, by `sample_element_values`: one
    not placed within the window, one whose shapes and steering angles run
    past its end, and one whose placement turns on a squared distance
    within ``_NEAR_SPACING`` (relative) of ``min_spacing**2``. So every
    trial's values are that function's bits.
    """
    element_count = int(element_count)
    if element_count < 1:
        raise ValueError("element_count must be >= 1")
    seeds = np.asarray(seeds, dtype=np.uint64)
    values = np.full((4, seeds.size, element_count), np.nan)
    settled = np.zeros(seeds.size, dtype=bool)
    # a request the area heuristic rules out is left to `sample_element_values` to refuse
    if element_count * (min_spacing / 2.0) ** 2 <= aperture_radius**2:
        width = STACK_WINDOW * element_count
        batch = max(1, SAMPLE_BATCH_DOUBLES // width)
        for start in range(0, seeds.size, batch):
            part = slice(start, start + batch)
            window = uniform_windows(seeds[part], width)
            settled[part] = _place_by_slot(window, aperture_radius, min_spacing, values[:, part])
    reasons: list[str | None] = [None] * seeds.size
    for t in np.flatnonzero(~settled):
        try:
            values[:, t] = sample_element_values(
                element_count, aperture_radius, min_spacing, int(seeds[t])
            )
        except InfeasibleGeometryError as err:
            reasons[t] = str(err)
    return values, reasons


def _place_by_slot(
    window: np.ndarray, aperture_radius: float, min_spacing: float, values: np.ndarray
) -> np.ndarray:
    """Fill ``values[:, t]`` for each trial its ``window[t]`` settles; the mask of those trials.

    Candidate c is ``window[:, 2c]`` (radius) and ``window[:, 2c + 1]``
    (angle). Element 0 is candidate 0. Each further slot measures every
    candidate against the element placed last, and a candidate stays
    rejected once a squared distance falls below the band around
    ``min_spacing**2`` and near once one falls at or below its top. A
    trial takes its first candidate past its last element that is not
    rejected, which is the candidate the scalar sampler accepts; one that
    is near leaves the trial unsettled, as does one that is missing. Only
    candidates that leave room for the 2M trailing doubles are walked,
    and no more than one element's cap or the budget allows, so no trial
    settled here restarts or runs out of draws.
    """
    trials, width = window.shape
    count = values.shape[2]
    steps = min((width - 2 * count) // 2, _PLACEMENT_CAP, SAMPLING_BUDGET)
    if steps < 1:
        return np.zeros(trials, dtype=bool)
    radius = aperture_radius * np.sqrt(window[:, 0 : 2 * steps : 2])
    angle = TWO_PI * window[:, 1 : 2 * steps : 2]
    x, y = radius * np.cos(angle), radius * np.sin(angle)
    min_sq = min_spacing * min_spacing
    below = min_sq - _NEAR_SPACING * min_sq
    above = min_sq + _NEAR_SPACING * min_sq
    rows = np.arange(trials)
    later = np.arange(steps)
    chosen = np.zeros((trials, count), dtype=np.intp)
    settled = np.ones(trials, dtype=bool)
    rejected = np.zeros((trials, steps), dtype=bool)
    near = np.zeros((trials, steps), dtype=bool)
    for slot in range(1, count):
        last = chosen[:, slot - 1, None]
        # x_c - x_last, the operands and order of the scalar sampler's test
        dx = x - np.take_along_axis(x, last, axis=1)
        dy = y - np.take_along_axis(y, last, axis=1)
        dist_sq = dx * dx + dy * dy
        rejected |= dist_sq < below
        near |= dist_sq <= above
        free = ~rejected & (later > last)
        pick = np.argmax(free, axis=1)
        settled &= free[rows, pick] & ~near[rows, pick]
        chosen[:, slot] = pick

    rows = np.flatnonzero(settled)
    picks, column = chosen[rows], rows[:, None]
    values[0, rows] = radius[column, picks]
    values[1, rows] = np.mod(angle[column, picks], TWO_PI)
    # the M shapes and the M steering angles follow the last placed candidate
    tail = window[column, 2 * (picks[:, -1:] + 1) + np.arange(2 * count)]
    values[2, rows] = tail[:, :count]
    values[3, rows] = np.mod(TWO_PI * tail[:, count:], TWO_PI)
    return settled


def geometry_digest(geometry: ArrayGeometry) -> str:
    """Order-sensitive hash of every geometric and directivity value."""
    parts = [repr(geometry.aperture_radius), repr(geometry.min_spacing)]
    for e in geometry.elements:
        parts.append(f"{e.r!r},{e.phi!r},{e.q!r},{e.theta_steer!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
