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

# each pass of a stacked sample draws the windows of its trials in batches
# of about this many doubles, 1 MiB
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


def check_element_field(name: str, value: float) -> float:
    """``value`` if `ArrayElement`'s field ``name`` may hold it, in any unit:
    finite, and ``r`` >= 0 and ``q`` in [0, 1]."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if name == "r" and value < 0.0:
        raise ValueError(f"radial distance must be >= 0, got {value!r}")
    if name == "q" and not 0.0 <= value <= 1.0:
        raise ValueError(f"shape coefficient must lie in [0, 1], got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """``value`` if it is positive and finite, as `ArrayGeometry`'s lengths must be."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


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
            check_element_field(name, getattr(self, name))
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "theta_steer", wrap_angle(self.theta_steer))

    @property
    def position(self) -> tuple[float, float]:
        return (self.r * math.cos(self.phi), self.r * math.sin(self.phi))


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
            check_positive(getattr(self, name), name)

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

    The trials are placed in passes. A pass walks S candidates per trial
    slot by slot, over windows of the 2(S + M) doubles that hold them and
    the M shapes and M steering angles after the last, drawn from each
    trial's seed in batches of about ``SAMPLE_BATCH_DOUBLES``. The first
    pass walks the leading M^2/2 + 3 candidates, and each later pass the
    trials whose candidates ran out, at S = min(2S, ``_PLACEMENT_CAP``,
    ``SAMPLING_BUDGET``), a cap within which no trial restarts or runs
    out of draws. A walk takes each trial's first candidate past its
    last element that is not rejected, the scalar sampler's choice however
    long the window is.

    `sample_element_values` samples the rest from scratch, so every
    trial's values are its bits: a trial past that cap, one whose
    placement turns on a squared distance within ``_NEAR_SPACING``
    (relative) of ``min_spacing**2``, and every trial of a request the
    area heuristic refuses.
    """
    count = int(element_count)
    if count < 1:
        raise ValueError("element_count must be >= 1")
    seeds = np.asarray(seeds, dtype=np.uint64)
    values = np.full((4, seeds.size, count), np.nan)
    settled = np.zeros(seeds.size, dtype=bool)
    # a request the area heuristic rules out is left to `sample_element_values` to refuse
    if count * (min_spacing / 2.0) ** 2 <= aperture_radius**2:
        limit = min(_PLACEMENT_CAP, SAMPLING_BUDGET)
        steps = min(count * count // 2 + 3, limit)
        pending = np.arange(seeds.size)
        while pending.size:
            # the candidates, then the M shapes and the M steering angles
            width = 2 * (steps + count)
            batch = max(1, SAMPLE_BATCH_DOUBLES // width)
            spent = []
            for start in range(0, pending.size, batch):
                trials = pending[start : start + batch]
                window = uniform_windows(seeds[trials], width)
                chosen, done, out = _walk_slots(window, steps, count, aperture_radius, min_spacing)
                rows = np.flatnonzero(done)
                picks, column, placed = chosen[rows], rows[:, None], trials[rows]
                values[0, placed] = aperture_radius * np.sqrt(window[column, 2 * picks])
                values[1, placed] = np.mod(TWO_PI * window[column, 2 * picks + 1], TWO_PI)
                # the M shapes and the M steering angles follow the last placed candidate
                tail = window[column, 2 * (picks[:, -1:] + 1) + np.arange(2 * count)]
                values[2, placed] = tail[:, :count]
                values[3, placed] = np.mod(TWO_PI * tail[:, count:], TWO_PI)
                settled[placed] = True
                spent.append(trials[out])
            pending = np.concatenate(spent)
            if steps == limit:
                break
            steps = min(2 * steps, limit)
    reasons: list[str | None] = [None] * seeds.size
    for t in np.flatnonzero(~settled):
        try:
            values[:, t] = sample_element_values(
                count, aperture_radius, min_spacing, int(seeds[t])
            )
        except InfeasibleGeometryError as err:
            reasons[t] = str(err)
    return values, reasons


def _walk_slots(
    window: np.ndarray, steps: int, count: int, aperture_radius: float, min_spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place ``count`` elements slot by slot from each trial's first ``steps``
    candidates: the chosen candidates (T, M), the trials settled, and the
    trials whose candidates ran out at some slot.

    Element 0 is candidate 0. Each further slot measures every candidate
    against the element placed last, and a candidate stays rejected once a
    squared distance falls below the band around ``min_spacing**2``, or
    once it is placed, and near once one falls at or below the band's
    top. A trial takes its first candidate that is not rejected, which is
    the candidate the scalar sampler accepts, since every earlier one is
    placed or rejected; one that is near leaves the trial unsettled, as
    does one that is missing.
    """
    trials = window.shape[0]
    radius = aperture_radius * np.sqrt(window[:, 0 : 2 * steps : 2])
    angle = TWO_PI * window[:, 1 : 2 * steps : 2]
    x, y = radius * np.cos(angle), radius * np.sin(angle)
    min_sq = min_spacing * min_spacing
    below = min_sq - _NEAR_SPACING * min_sq
    above = min_sq + _NEAR_SPACING * min_sq
    rows = np.arange(trials)
    chosen = np.zeros((trials, count), dtype=np.intp)
    settled = np.ones(trials, dtype=bool)
    spent = np.zeros(trials, dtype=bool)
    free = np.ones((trials, steps), dtype=bool)
    free[:, 0] = False
    near = np.zeros((trials, steps), dtype=bool)
    pick = chosen[:, 0]
    for slot in range(1, count):
        # (x_c - x_last)**2 + (y_c - y_last)**2, the scalar sampler's test, in place
        dist_sq = x - x[rows, pick][:, None]
        dy = y - y[rows, pick][:, None]
        dist_sq *= dist_sq
        dy *= dy
        dist_sq += dy
        free &= dist_sq >= below
        near |= dist_sq <= above
        pick = free.argmax(axis=1)
        found = free[rows, pick]
        spent |= ~found
        settled &= found & ~near[rows, pick]
        free[rows, pick] = False
        chosen[:, slot] = pick
    return chosen, settled, spent


def geometry_digest(geometry: ArrayGeometry) -> str:
    """Order-sensitive hash of every geometric and directivity value."""
    parts = [repr(geometry.aperture_radius), repr(geometry.min_spacing)]
    for e in geometry.elements:
        parts.append(f"{e.r!r},{e.phi!r},{e.q!r},{e.theta_steer!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
